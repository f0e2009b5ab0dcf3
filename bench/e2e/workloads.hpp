// The benchmark's inputs, spelled out field by field.
//
// These configs deliberately do not call bench::campaign_config or
// bench::inference_config: an edit to the figure benches' shared settings
// must not silently change what this benchmark measures.
//
// Each workload studies a fixed sequence of campaigns (the "Internet" it
// runs on: corpus members 0, 1, 2, ..., seeded from kCorpusSeed), every
// run in the same order. The --seed argument picks everything stochastic
// on top of it: the MH and HMC seeds, the becaused query streams and Zipf
// popularity ranks. A campaign's cost varies by ~10% across topology seeds
// (beacon-site placement moves the event count), which, re-drawn every
// run, would drown a regression bound; a fixed corpus leaves only
// run-to-run noise in the spread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "experiment/campaign.hpp"
#include "experiment/pipeline.hpp"
#include "service/config.hpp"
#include "topology/generator.hpp"

namespace because::bench_e2e {

inline constexpr std::uint64_t kCorpusSeed = 2020;

/// Campaign seed of corpus member `member`.
inline std::uint64_t corpus_seed(std::size_t member) {
  return sub_seed(kCorpusSeed, member);
}

/// One study workload: its name and how many timed studies a run always
/// completes, however long they take. Those studies give the instruction
/// median, so it covers the same campaigns in every run.
struct StudyWorkload {
  std::string name;
  std::size_t min_timed = 1;
};

inline const std::vector<StudyWorkload>& study_workloads() {
  static const std::vector<StudyWorkload> kWorkloads = {
      {"study-650", 6}, {"study-10k", 4}, {"study-70k-shard4", 3}};
  return kWorkloads;
}

/// Paper-shaped campaign at the figure benches' scale: 648 generated ASes
/// plus 7 beacon sites, one 5-min update interval, 2 prefixes per site.
inline experiment::CampaignConfig campaign_650(std::uint64_t seed) {
  experiment::CampaignConfig c;
  c.topology.tier1_count = 8;
  c.topology.transit_count = 140;
  c.topology.stub_count = 500;
  c.beacon_sites = 7;
  c.update_intervals = {sim::minutes(5)};
  c.prefixes_per_interval = 2;
  c.burst_length = sim::hours(1);
  c.break_length = sim::minutes(100);
  c.pairs = 5;
  c.anchor_cycles = 3;
  c.vantage_points = 50;
  c.deployment.damping_fraction = 0.09;
  c.deployment.transit_weight = 3.0;
  c.prepending_prob = 0.0;
  c.seed = seed;
  return c;
}

/// Internet-like topology with a static warm start: converged baseline
/// routes are seeded directly, so the simulation pays events only for the
/// beacon deltas. Jitter, aggregator noise and resets are off, as in the
/// warm-start equivalence tests. One Burst-Break pair per site and few
/// sites per campaign keep a study short (1-3 s), so that a run times
/// 6-10 of them and reports their median.
inline experiment::CampaignConfig campaign_internet(std::uint32_t ases,
                                                   std::size_t sites,
                                                   std::size_t vps,
                                                   std::uint32_t shards,
                                                   sim::Duration burst,
                                                   std::uint64_t seed) {
  experiment::CampaignConfig c;
  c.topology = topology::internet_like(ases);
  c.beacon_sites = sites;
  c.update_intervals = {sim::minutes(5)};
  c.prefixes_per_interval = 1;
  c.burst_length = burst;
  c.break_length = sim::minutes(100);
  c.pairs = 1;
  c.include_anchor = false;
  c.include_ripe_reference = false;
  c.vantage_points = vps;
  c.deployment.damping_fraction = 0.09;
  c.deployment.transit_weight = 3.0;
  c.prepending_prob = 0.0;
  c.missing_aggregator_prob = 0.0;
  c.session_resets = 0;
  c.background_prefixes = 0;
  c.network.mrai_jitter = 0.0;
  c.warm_start.mode = experiment::WarmStart::kStatic;
  c.warm_start.baseline_prefixes = 4;
  c.shards = shards;
  c.seed = seed;
  return c;
}

/// Corpus member `member` of study workload `name`.
inline experiment::CampaignConfig study_campaign(const std::string& name,
                                                 std::size_t member) {
  const std::uint64_t seed = corpus_seed(member);
  if (name == "study-10k")
    return campaign_internet(10'000, 3, 40, 0, sim::hours(1), seed);
  if (name == "study-70k-shard4")
    return campaign_internet(70'000, 1, 12, 4, sim::minutes(20), seed);
  return campaign_650(seed);
}

/// The figure benches' inference settings at the time this benchmark was
/// defined (MH 3000+2000 thin 2, HMC 600+200 x 30, §7.2 noise 0.05/0.05),
/// with sampler seeds drawn from `seed`. `smoke` shortens the chains for
/// the smoke test.
inline experiment::InferenceConfig study_inference(bool smoke,
                                                   std::uint64_t seed) {
  experiment::InferenceConfig c;
  c.mh.seed = sub_seed(seed, 1);
  c.hmc.seed = sub_seed(seed, 2);
  c.mh.samples = smoke ? 300 : 3000;
  c.mh.burn_in = smoke ? 200 : 2000;
  c.mh.thin = 2;
  c.hmc.samples = smoke ? 60 : 600;
  c.hmc.burn_in = smoke ? 20 : 200;
  c.hmc.leapfrog_steps = 30;
  c.prior_alpha = 1.0;
  c.prior_beta = 1.5;
  c.noise.false_signature = 0.05;
  c.noise.missed_signature = 0.05;
  c.pinpoint_noise_guard = 0.5;
  return c;
}

/// becaused's input, corpus member 0 of a March-2020-shaped campaign at 655
/// ASes (update intervals 1/2/3 min, 2 prefixes each, 7 sites: 42 beacon
/// prefixes) with ~780k records. Its second half outlasts a 15-second feed
/// at the becaused-fresh rate, and the warm half and the full store sit
/// between 2^18 and 2^20 records, away from the doubling steps of the
/// daemon's record vector.
inline experiment::CampaignConfig service_campaign() {
  experiment::CampaignConfig c = campaign_650(corpus_seed(0));
  c.update_intervals = {sim::minutes(1), sim::minutes(2), sim::minutes(3)};
  return c;
}

/// The daemon's settings: warm pools of 4 HMC chains (seeded from the run's
/// --seed), 64-trajectory refreshes, room for every beacon prefix in the
/// hot cache.
inline service::ServiceConfig service_config(std::uint64_t seed) {
  service::ServiceConfig c;
  c.inference = study_inference(false, seed);
  c.inference.hmc.samples = 300;
  c.inference.hmc.burn_in = 100;
  c.pool_chains = 4;
  c.refresh_samples = 64;
  c.hot_prefix_capacity = 64;
  return c;
}

}  // namespace because::bench_e2e
