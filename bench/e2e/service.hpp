// becaused driving pieces shared by the becaused-* workloads and the traced
// pass: daemon bring-up, the closed-loop cached-query storm, the open-loop
// ingest-while-querying phase, and scoring the daemon's answers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "e2e.hpp"
#include "experiment/campaign.hpp"
#include "service/daemon.hpp"
#include "util/thread_pool.hpp"

namespace because::bench_e2e {

/// Open-loop feeder: updates per second and per chunk.
inline constexpr double kFeedRate = 25'000.0;
inline constexpr std::size_t kFeedChunk = 64;
/// A feeder running more than this far behind its schedule invalidates the
/// run: the offered load was no longer the workload's.
inline constexpr double kFeederLateLimitMs = 1'000.0;
/// Daemon ThreadPool workers (warm chains run on it).
inline constexpr std::size_t kPoolWorkers = 2;

/// The beacon prefixes of a campaign, in deployment order.
std::vector<bgp::Prefix> beacon_prefixes(
    const experiment::CampaignResult& campaign);

/// A daemon (service_config(seed)) brought up on a campaign: VP directory
/// and schedules loaded, the first `records` updates replayed, and every
/// beacon prefix queried once (each a cold build).
struct BroughtUp {
  std::unique_ptr<service::Daemon> daemon;
  std::size_t replayed = 0;
  double replay_s = 0.0;
  std::vector<double> cold_ms;                         ///< per prefix
  std::vector<std::vector<topology::AsId>> damping;    ///< per prefix
  double seconds = 0.0;                                ///< whole bring-up
};
BroughtUp bring_up(const experiment::CampaignResult& campaign,
                   util::ThreadPool& pool, std::size_t records,
                   std::uint64_t seed, Report& report,
                   TraceRecorder* trace = nullptr, std::int64_t parent = -1);

/// Ingest-while-querying: an open-loop feeder replays `store` from record
/// `first` at kFeedRate in kFeedChunk chunks for `seconds` (or until the
/// store runs out), recording how late each chunk starts past its due time,
/// while `clients` closed-loop clients query Zipf-drawn prefixes.
struct MixedResult {
  std::vector<double> fresh_ms;  ///< latency of kRefreshed answers
  std::vector<double> hit_us;    ///< latency of kCached answers (sampled)
  std::uint64_t refreshes = 0;
  std::uint64_t hits = 0;
  std::size_t fed = 0;
  double late_max_ms = 0.0;  ///< worst feeder start delay past a due time
  double seconds = 0.0;      ///< feeder wall time
};
MixedResult run_mixed(service::Daemon& daemon,
                      const collector::UpdateStore& store, std::size_t first,
                      const std::vector<bgp::Prefix>& prefixes,
                      std::size_t clients, double seconds, std::uint64_t seed,
                      Report& report, TraceRecorder* trace = nullptr,
                      std::int64_t parent = -1);

}  // namespace because::bench_e2e
