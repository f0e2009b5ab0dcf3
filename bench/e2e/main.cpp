// bench_e2e: the end-to-end benchmark, from beacon campaign to verdict and
// from becaused bring-up to answered queries.
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--trace OUT.json]
//             [--smoke]
//
// Workloads: study-650, study-10k, study-70k-shard4, becaused-read,
// becaused-fresh (see README.md for why each exists). Without --trace the
// run measures the end-to-end metrics with tracing off; with --trace it runs
// the traced pass instead, prints the per-layer metrics and writes a Chrome
// trace-event JSON to OUT.json. Human-readable lines come first; the last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when a result was printed (its "correct" field says
// whether every output check passed), 1 on an unexpected error, 2 on a
// usage error or, except with --smoke, a build that is not an optimized,
// contract-free release.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "core/kernels/dispatch.hpp"
#include "e2e.hpp"
#include "instructions.hpp"

#ifndef BENCH_E2E_BUILD_TYPE
#define BENCH_E2E_BUILD_TYPE "unknown"
#endif

namespace because::bench_e2e {
namespace {

const std::vector<std::string> kWorkloads = {
    "study-650", "study-10k", "study-70k-shard4", "becaused-read",
    "becaused-fresh"};

/// Every run prints every one of these, in this order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "verdict_instructions", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "experiment.study_s",
    "experiment.campaign_s",
    "experiment.inference_s",
    "experiment.campaign_instructions",
    "experiment.inference_instructions",
    "experiment.campaign_allocs",
    "topology.generate_s",
    "topology.partition_s",
    "topology.partition.cut_edges",
    "sim.events",
    "sim.events_per_s",
    "sim.events.bgp_delivery",
    "sim.events.mrai_timer",
    "sim.events.collector_record",
    "sim.events.rfd_reuse",
    "sim.cal.scan_steps_per_event",
    "sim.allocs_per_event",
    "bgp.updates_received",
    "bgp.sends_elided_ratio",
    "bgp.adj_rib_in.memo_hit_ratio",
    "bgp.loc_rib.memo_hit_ratio",
    "bgp.static.visits",
    "bgp.static.seeded_routes",
    "collector.records",
    "collector.records_per_event",
    "labeling.label_s",
    "labeling.observed_s",
    "labeling.paths",
    "labeling.rfd_share",
    "labeling.dataset_s",
    "labeling.dataset_paths",
    "labeling.dataset_ases",
    "labeling.dedup_drop_share",
    "labeling.relabel_ms",
    "core.mh_s",
    "core.mh.proposals_per_s",
    "core.mh.accept_ratio",
    "core.hmc_s",
    "core.hmc.leapfrog_per_s",
    "core.hmc.accept_ratio",
    "core.hmc.divergences",
    "core.post_s",
    "core.pinpoint_upgrades",
    "core.verdict_precision",
    "core.verdict_recall",
    "core.kernel_dispatch",
    "service.replay_ns_per_update",
    "service.cold_build_ms",
    "service.hit_p99_us_under_ingest",
    "service.refreshes",
    "service.cache_hits",
    "service.refresh_share",
    "service.feeder_late_max_ms",
    "service.snapshot_mb",
    "service.restore_s",
    "trace.overhead"};

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "[--seconds S] [--trace OUT.json] [--smoke]\nworkloads:",
               why);
  for (const std::string& w : kWorkloads) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// Print the metric lines and the final JSON line. An expected metric that
/// is missing or not a finite number counts as a failed operation.
void emit(Report& report, const std::vector<std::string>& expected) {
  std::vector<const Metric*> ordered;
  for (const std::string& name : expected) {
    const Metric* found = nullptr;
    for (const Metric& m : report.metrics)
      if (m.name == name) found = &m;
    if (found == nullptr || !std::isfinite(found->value)) {
      std::printf("missing metric %s\n", name.c_str());
      report.fail("metric " + name + " missing or not finite");
      continue;
    }
    ordered.push_back(found);
    std::printf("metric %-34s %.6g %s\n", name.c_str(), found->value,
                found->unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < ordered.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ordered[i]->name.c_str(),
                ordered[i]->value, ordered[i]->unit.c_str());
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return usage("--seed takes a whole number");
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(options.seconds > 0.0))
        return usage("--seconds takes a positive number");
    } else if (arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");
  if (!is_study_workload(options.workload) &&
      !is_service_workload(options.workload))
    return usage(("unknown workload " + options.workload).c_str());
  if (options.smoke) options.seconds = std::min(options.seconds, 1.0);

  const char* kernels =
      core::kernels::level_name(core::kernels::active_level());
  std::printf("bench_e2e build=%s kernels=%s workload=%s seed=%llu "
              "seconds=%g pass=%s%s\n",
              BENCH_E2E_BUILD_TYPE, kernels, options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace_path.empty() ? "end-to-end" : "traced",
              options.smoke ? " smoke" : "");
#if !defined(NDEBUG) || defined(BECAUSE_ENABLE_CONTRACTS)
  // A smoke run checks that the benchmark works, not how fast, so it also
  // runs in the repository's default (contract-checking) build.
  if (!options.smoke) {
    std::fprintf(stderr,
                 "bench_e2e: refusing to measure a build with assertions or "
                 "contracts enabled; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 2;
  }
#endif
  std::fflush(stdout);
  open_instruction_counter();

  Report report;
  if (!options.trace_path.empty()) {
    report = run_traced(options);
    emit(report, kPerLayer);
  } else {
    report = is_study_workload(options.workload)
                 ? run_study_workload(options)
                 : run_service_workload(options);
    emit(report, kEndToEnd);
  }
  return 0;
}

}  // namespace
}  // namespace because::bench_e2e

int main(int argc, char** argv) {
  try {
    return because::bench_e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: error: %s\n", e.what());
    return 1;
  }
}
