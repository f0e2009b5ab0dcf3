// becaused-* workloads: the paper's deployment form, a long-running daemon
// answering "which AS is damping prefix X?".
//
//   becaused-read   every prefix warm, no ingest: 3 closed-loop clients
//                   hammer cached answers through the daemon's single mutex.
//   becaused-fresh  half the campaign warm; an open-loop feeder replays the
//                   rest at 25k updates/s while 2 clients query, so most
//                   answers must relabel and advance warm chains.
//
// The campaign (corpus member 0) is the daemon's input and is simulated
// once per process; --seed picks the query streams and the warm chains'
// seeds.
// Set-up is the daemon's own bring-up (construction, load_campaign, the
// initial replay and a cold build of every prefix), repeated three times.
#include "service.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "instructions.hpp"
#include "workloads.hpp"

namespace because::bench_e2e {

namespace {

constexpr std::size_t kReadClients = 3;
constexpr std::size_t kFreshClients = 2;
constexpr int kSetupReps = 3;
/// Of the cached answers in the mixed phase, every kHitSpanEvery-th gets a
/// trace span (all refreshed answers do).
constexpr std::uint64_t kHitSpanEvery = 256;

double ms_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Query popularity: `count` prefix indices drawn Zipf(1.1) over `n`
/// prefixes. `popularity_seed` fixes which prefix holds which rank (shared
/// by every client); `draw_seed` is the client's own stream.
std::vector<std::uint32_t> zipf_draws(std::size_t n, std::size_t count,
                                      std::uint64_t popularity_seed,
                                      std::uint64_t draw_seed) {
  std::vector<std::uint32_t> rank_to_index(n);
  for (std::size_t i = 0; i < n; ++i)
    rank_to_index[i] = static_cast<std::uint32_t>(i);
  stats::Rng perm_rng(popularity_seed);
  perm_rng.shuffle(rank_to_index);
  stats::Rng rng(draw_seed);
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf[k] = total;
  }
  std::vector<std::uint32_t> out(count);
  for (std::uint32_t& draw : out) {
    const double u = rng.uniform() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    draw = rank_to_index[std::min(rank, n - 1)];
  }
  return out;
}

struct StormResult {
  std::vector<double> latency_us;
  std::uint64_t queries = 0;
  std::uint64_t wrong = 0;
  double seconds = 0.0;
};

/// Closed-loop cached-query storm: each client issues its next query as soon
/// as the previous one returns, for `seconds`. Every answer must be a cache
/// hit carrying the verdict the cold build produced. Clients tally in
/// thread-local state and publish once at the end, so the storm measures
/// the daemon's contention, not the benchmark's.
StormResult run_read_storm(service::Daemon& daemon,
                           const std::vector<bgp::Prefix>& prefixes,
                           const std::vector<std::vector<topology::AsId>>& damping,
                           double seconds, std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::vector<StormResult> tallies(kReadClients);
  std::vector<std::thread> clients;
  const auto start = SteadyClock::now();
  for (std::size_t c = 0; c < kReadClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::uint32_t> draws =
          zipf_draws(prefixes.size(), 1u << 16, seed, sub_seed(seed, 100 + c));
      SampleBuffer samples;
      std::uint64_t queries = 0, wrong = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t idx = draws[queries++ & (draws.size() - 1)];
        const auto t0 = SteadyClock::now();
        service::QueryResult r;
        try {
          r = daemon.query(prefixes[idx]);
        } catch (const std::exception&) {
          ++wrong;
          continue;
        }
        const auto t1 = SteadyClock::now();
        samples.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (r.source != service::QueryResult::Source::kCached ||
            r.damping != damping[idx])
          ++wrong;
      }
      tallies[c].latency_us = samples.values();
      tallies[c].queries = queries;
      tallies[c].wrong = wrong;
    });
  }
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(seconds)));
  stop.store(true);
  for (std::thread& t : clients) t.join();

  StormResult out;
  out.seconds = seconds_since(start);
  for (const StormResult& t : tallies) {
    out.latency_us.insert(out.latency_us.end(), t.latency_us.begin(),
                          t.latency_us.end());
    out.queries += t.queries;
    out.wrong += t.wrong;
  }
  return out;
}

}  // namespace

bool is_service_workload(const std::string& name) {
  return name == "becaused-read" || name == "becaused-fresh";
}

std::vector<bgp::Prefix> beacon_prefixes(
    const experiment::CampaignResult& campaign) {
  std::vector<bgp::Prefix> out;
  for (const experiment::BeaconDeployment& b : campaign.beacons)
    out.push_back(b.prefix);
  return out;
}

BroughtUp bring_up(const experiment::CampaignResult& campaign,
                   util::ThreadPool& pool, std::size_t records,
                   std::uint64_t seed, Report& report, TraceRecorder* trace,
                   std::int64_t parent) {
  BroughtUp out;
  const auto start = SteadyClock::now();
  out.daemon = std::make_unique<service::Daemon>(service_config(seed), &pool);
  out.daemon->load_campaign(campaign);
  {
    SpanScope span(trace, "service.replay", parent);
    const auto replay_start = SteadyClock::now();
    out.replayed = out.daemon->replay(campaign.store, 0, records);
    out.replay_s = seconds_since(replay_start);
  }
  for (const bgp::Prefix& prefix : beacon_prefixes(campaign)) {
    SpanScope span(trace, "service.cold_build", parent);
    const auto t0 = SteadyClock::now();
    ++report.attempted;
    const service::QueryResult r = out.daemon->query(prefix);
    out.cold_ms.push_back(ms_between(t0, SteadyClock::now()));
    if (r.source != service::QueryResult::Source::kCold ||
        r.observations == 0)
      report.fail("bring-up query of prefix " + std::to_string(prefix.id) +
                  " was not a cold build over observed paths");
    out.damping.push_back(r.damping);
  }
  out.seconds = seconds_since(start);
  return out;
}

MixedResult run_mixed(service::Daemon& daemon,
                      const collector::UpdateStore& store, std::size_t first,
                      const std::vector<bgp::Prefix>& prefixes,
                      std::size_t clients, double seconds, std::uint64_t seed,
                      Report& report, TraceRecorder* trace,
                      std::int64_t parent) {
  struct Tally {
    std::vector<double> fresh_ms;
    std::vector<double> hit_us;
    std::uint64_t queries = 0, hits = 0, cold = 0, errors = 0;
  };
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<std::uint32_t> draws =
          zipf_draws(prefixes.size(), 1u << 16, seed, sub_seed(seed, 200 + c));
      const auto lane = static_cast<std::uint32_t>(1 + c);
      Tally tally;
      SampleBuffer hits;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint32_t idx = draws[n++ & (draws.size() - 1)];
        const double start_us = trace != nullptr ? trace->now_us() : 0.0;
        const auto t0 = SteadyClock::now();
        service::QueryResult r;
        try {
          r = daemon.query(prefixes[idx]);
        } catch (const std::exception&) {
          ++tally.errors;
          continue;
        }
        const auto t1 = SteadyClock::now();
        const bool refreshed =
            r.source == service::QueryResult::Source::kRefreshed;
        if (refreshed) {
          tally.fresh_ms.push_back(ms_between(t0, t1));
        } else if (r.source == service::QueryResult::Source::kCached) {
          hits.add(std::chrono::duration<double, std::micro>(t1 - t0).count());
        } else {
          ++tally.cold;
        }
        if (r.categories.size() != r.summaries.size() || r.observations == 0)
          ++tally.errors;
        if (trace != nullptr && (refreshed || n % kHitSpanEvery == 0))
          trace->add({refreshed ? "service.query_refreshed"
                                : "service.query_cached",
                      start_us, trace->now_us(), parent,
                      (static_cast<std::uint64_t>(lane) << 32) | n, lane});
      }
      tally.queries = n;
      tally.hit_us = hits.values();
      tally.hits = hits.seen();
      tallies[c] = std::move(tally);
    });
  }

  // The feeder runs on this thread, open loop: chunk k is due k * chunk /
  // rate after the start whatever happened before it, so a stall makes
  // every later chunk late instead of quietly lowering the offered load.
  MixedResult out;
  const auto start = SteadyClock::now();
  for (std::size_t k = 0;; ++k) {
    const double due_s =
        static_cast<double>(k * kFeedChunk) / kFeedRate;
    const std::size_t at = first + k * kFeedChunk;
    if (due_s >= seconds || at >= store.size()) break;
    const auto due =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due);
    out.late_max_ms =
        std::max(out.late_max_ms, ms_between(due, SteadyClock::now()));
    SpanScope span(k % 16 == 0 ? trace : nullptr, "service.ingest_chunk",
                   parent);
    out.fed += daemon.replay(store, at, kFeedChunk);
  }
  out.seconds = seconds_since(start);
  stop.store(true);
  for (std::thread& t : threads) t.join();

  std::uint64_t cold = 0, errors = 0;
  for (const Tally& t : tallies) {
    report.attempted += t.queries;
    out.fresh_ms.insert(out.fresh_ms.end(), t.fresh_ms.begin(),
                        t.fresh_ms.end());
    out.hit_us.insert(out.hit_us.end(), t.hit_us.begin(), t.hit_us.end());
    out.hits += t.hits;
    cold += t.cold;
    errors += t.errors;
  }
  out.refreshes = out.fresh_ms.size();
  if (cold != 0)
    report.fail(std::to_string(cold) +
                " queries rebuilt cold during the mixed phase");
  if (errors != 0)
    report.fail(std::to_string(errors) +
                " mixed-phase answers threw or were malformed");
  if (out.late_max_ms > kFeederLateLimitMs)
    report.fail("feeder fell " + std::to_string(out.late_max_ms) +
                " ms behind its schedule");
  return out;
}

Report run_service_workload(const Options& options) {
  const bool fresh = options.workload == "becaused-fresh";
  Report report;
  const experiment::CampaignResult campaign =
      experiment::run_campaign(service_campaign());
  const std::vector<bgp::Prefix> prefixes = beacon_prefixes(campaign);
  const std::size_t warm_records =
      fresh ? campaign.store.size() / 2 : campaign.store.size();
  std::printf("campaign: %zu records, %zu beacon prefixes, %llu events\n",
              campaign.store.size(), prefixes.size(),
              static_cast<unsigned long long>(campaign.events_executed));

  util::ThreadPool pool(kPoolWorkers);
  std::vector<double> setups;
  BroughtUp up;
  for (int rep = 0; rep < (options.smoke ? 1 : kSetupReps); ++rep) {
    up = BroughtUp{};  // the previous daemon goes before the next is built
    up = bring_up(campaign, pool, warm_records, options.seed, report);
    setups.push_back(up.seconds);
  }
  std::printf("bring-up: %zu updates replayed in %.3f s, cold build median "
              "%.1f ms\n",
              up.replayed, up.replay_s, median(up.cold_ms));

  // Latencies and rates are printed but are not metrics: on a shared 4-vCPU
  // host they do not repeat within a tenth from run to run (README.md).
  // The metric is the whole process's instructions over the measured
  // phase, clients, feeder and the daemon's pool included, per verdict.
  double verdict_instructions = 0.0;
  const std::uint64_t instructions_before = instructions_retired();
  if (fresh) {
    const MixedResult mixed =
        run_mixed(*up.daemon, campaign.store, warm_records, prefixes,
                  kFreshClients, options.seconds, options.seed, report);
    const double instructions =
        static_cast<double>(instructions_retired() - instructions_before);
    std::printf("mixed: fed %zu updates in %.3f s (late max %.3f ms); %llu "
                "refreshed answers (p50 %.3f ms, p99 %.3f ms, %.1f/s), %llu "
                "cached\n",
                mixed.fed, mixed.seconds, mixed.late_max_ms,
                static_cast<unsigned long long>(mixed.refreshes),
                median(mixed.fresh_ms), percentile(mixed.fresh_ms, 0.99),
                static_cast<double>(mixed.refreshes) / mixed.seconds,
                static_cast<unsigned long long>(mixed.hits));
    if (mixed.refreshes == 0) report.fail("no answer took in new updates");
    verdict_instructions =
        instructions /
        static_cast<double>(std::max<std::uint64_t>(1, mixed.refreshes));
  } else {
    const StormResult storm = run_read_storm(*up.daemon, prefixes, up.damping,
                                             options.seconds, options.seed);
    const double instructions =
        static_cast<double>(instructions_retired() - instructions_before);
    std::printf("storm: %llu cached queries in %.3f s over %zu clients, "
                "%.0f/s (p50 %.4f us, p99 %.4f us)\n",
                static_cast<unsigned long long>(storm.queries), storm.seconds,
                kReadClients,
                static_cast<double>(storm.queries) / storm.seconds,
                interpolated_quantile(storm.latency_us, 0.5),
                interpolated_quantile(storm.latency_us, 0.99));
    report.attempted += storm.queries;
    if (storm.wrong != 0)
      report.fail(std::to_string(storm.wrong) +
                  " storm answers were not the cached verdict");
    verdict_instructions =
        instructions /
        static_cast<double>(std::max<std::uint64_t>(1, storm.queries));
  }

  report.add("setup_s", median(setups), "s");
  report.add("verdict_instructions", verdict_instructions, "instr");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  return report;
}

}  // namespace because::bench_e2e
