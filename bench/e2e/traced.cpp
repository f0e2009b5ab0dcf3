// The traced pass: per-layer numbers for any workload.
//
// On the workload's first corpus campaign it runs
//   1. an untraced reference study (run_campaign + run_inference), once
//      before and once after everything else; their mean wall time is the
//      base of the tracing overhead, and the verdict digest is what the
//      traced stages must reproduce;
//   2. the same study rebuilt stage by stage from public functions, one
//      span per call, with obs counters read after the campaign and after
//      the samplers;
//   3. labeling again over the finished store, the campaign's topology
//      generation again, and a K=4 partition of its graph;
//   4. becaused over the campaign: bring-up from half the records, two
//      seconds of ingest-while-querying, then snapshot and restore.
// Spans are bench-side, around the public calls into each layer; the
// library is not modified. The study tree's spans share request id 1, so
// their self times sum to the traced study's wall time.
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "alloc_hook.hpp"
#include "core/evaluate.hpp"
#include "core/kernels/dispatch.hpp"
#include "core/likelihood.hpp"
#include "core/prior.hpp"
#include "e2e.hpp"
#include "instructions.hpp"
#include "labeling/path_key.hpp"
#include "obs/metrics.hpp"
#include "service.hpp"
#include "study.hpp"
#include "topology/partition.hpp"
#include "workloads.hpp"

namespace because::bench_e2e {

namespace {

constexpr std::uint64_t kStudyRequest = 1;
constexpr std::uint64_t kRelabelRequest = 2;
constexpr std::uint64_t kTopologyRequest = 3;
constexpr std::uint64_t kServiceRequest = 4;
/// Length of the traced ingest-while-querying phase.
constexpr double kTracedMixedSeconds = 2.0;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Run `fn` inside a span; its wall time (seconds) lands in `seconds`.
template <typename F>
auto timed(TraceRecorder& rec, const char* name, std::int64_t parent,
           std::uint64_t request, double& seconds, F&& fn) {
  const std::int64_t id = rec.open(name, parent, request);
  const double start = rec.now_us();
  struct Close {
    TraceRecorder& rec;
    std::int64_t id;
    double start;
    double& seconds;
    ~Close() {
      rec.close(id);
      seconds = 1e-6 * (rec.now_us() - start);
    }
  } close{rec, id, start, seconds};
  return fn();
}

/// obs counter rows read by name.
class Counters {
 public:
  explicit Counters(obs::MetricsSnapshot snap) : snap_(std::move(snap)) {}
  double operator()(std::string_view name) const {
    for (const obs::MetricsSnapshot::CounterRow& row : snap_.counters)
      if (row.name == name) return static_cast<double>(row.value);
    throw std::runtime_error("obs counter not registered: " +
                             std::string(name));
  }
  double hit_ratio(const std::string& prefix) const {
    const double hits = (*this)(prefix + "_hits");
    return ratio(hits, hits + (*this)(prefix + "_misses"));
  }

 private:
  obs::MetricsSnapshot snap_;
};

struct TracedStudy {
  experiment::CampaignResult campaign;
  std::uint64_t digest = 0;
  double seconds = 0.0;
};

/// Stage 2: the study, one span per public call.
TracedStudy traced_study(const experiment::CampaignConfig& config,
                         const experiment::InferenceConfig& inference,
                         TraceRecorder& rec, Report& report) {
  TracedStudy out;
  obs::reset();
  obs::set_enabled(true);
  const std::int64_t root = rec.open("experiment.study", -1, kStudyRequest);
  const double root_start = rec.now_us();

  double campaign_s = 0.0;
  const std::uint64_t campaign_start_instructions = instructions_retired();
  set_allocation_counting(true);
  const std::uint64_t allocs_before = allocation_count();
  out.campaign = timed(rec, "experiment.campaign", root, kStudyRequest,
                       campaign_s, [&] { return experiment::run_campaign(config); });
  const double allocs = static_cast<double>(allocation_count() - allocs_before);
  set_allocation_counting(false);
  const std::uint64_t inference_start_instructions = instructions_retired();
  const Counters sim(obs::snapshot());
  obs::reset();
  const experiment::CampaignResult& campaign = out.campaign;

  double inference_s = 0.0, dataset_s = 0.0, likelihood_s = 0.0, mh_s = 0.0,
         hmc_s = 0.0, post_s = 0.0;
  const std::int64_t inference_id =
      rec.open("experiment.inference", root, kStudyRequest);
  const double inference_start = rec.now_us();
  // The dedup run_inference applies: one measurement per distinct
  // (prefix, label, path).
  std::size_t distinct = 0;
  const labeling::PathDataset dataset = timed(
      rec, "labeling.dataset", inference_id, kStudyRequest, dataset_s, [&] {
        const std::unordered_set<topology::AsId> exclude = campaign.site_set();
        std::unordered_set<std::string> seen;
        labeling::PathDataset d;
        for (const labeling::LabeledPath& p : campaign.labeled) {
          std::string key = std::to_string(p.prefix.id) + "|" +
                            (p.rfd ? "1|" : "0|") +
                            labeling::path_to_string(p.path);
          if (!seen.insert(std::move(key)).second) continue;
          d.add_path(p.path, p.rfd, exclude);
        }
        distinct = seen.size();
        return d;
      });
  const core::Likelihood likelihood =
      timed(rec, "core.likelihood", inference_id, kStudyRequest, likelihood_s,
            [&] { return core::Likelihood(dataset, inference.noise); });
  const core::Prior prior =
      core::Prior::beta(inference.prior_alpha, inference.prior_beta);
  const core::Chain mh =
      timed(rec, "core.mh", inference_id, kStudyRequest, mh_s, [&] {
        return core::run_metropolis(likelihood, prior, inference.mh);
      });
  const core::Chain hmc =
      timed(rec, "core.hmc", inference_id, kStudyRequest, hmc_s,
            [&] { return core::run_hmc(likelihood, prior, inference.hmc); });
  const core::PinpointResult verdict =
      timed(rec, "core.post", inference_id, kStudyRequest, post_s, [&] {
        const auto mh_summaries =
            core::summarize(mh, dataset, inference.hdpi_mass);
        const auto hmc_summaries =
            core::summarize(hmc, dataset, inference.hdpi_mass);
        return core::pinpoint_inconsistent(
            mh, dataset,
            core::highest_all(
                core::categorize_all(mh_summaries, inference.cutoffs),
                core::categorize_all(hmc_summaries, inference.cutoffs)),
            inference.pinpoint_threshold, inference.pinpoint_noise_guard);
      });
  rec.close(inference_id);
  inference_s = 1e-6 * (rec.now_us() - inference_start);
  const std::uint64_t end_instructions = instructions_retired();
  rec.close(root);
  out.seconds = 1e-6 * (rec.now_us() - root_start);
  const Counters mcmc(obs::snapshot());
  obs::set_enabled(false);
  out.digest = verdict_digest(dataset, verdict.categories, verdict.upgraded);

  const double events = static_cast<double>(campaign.events_executed);
  const double records = static_cast<double>(campaign.store.size());
  const double sends = sim("bgp.announcements_sent") +
                       sim("bgp.withdrawals_sent") + sim("bgp.sends_elided");
  report.add("experiment.campaign_s", campaign_s, "s");
  report.add("experiment.inference_s", inference_s, "s");
  report.add("experiment.campaign_instructions",
             static_cast<double>(inference_start_instructions -
                                 campaign_start_instructions),
             "instr");
  report.add("experiment.inference_instructions",
             static_cast<double>(end_instructions -
                                 inference_start_instructions),
             "instr");
  report.add("experiment.campaign_allocs", allocs, "count");
  report.add("sim.events", events, "count");
  report.add("sim.events_per_s", ratio(events, campaign_s), "1/s");
  for (const char* kind :
       {"bgp_delivery", "mrai_timer", "collector_record", "rfd_reuse"}) {
    const std::string name = std::string("sim.events.") + kind;
    report.add(name, sim(name), "count");
  }
  report.add("sim.cal.scan_steps_per_event",
             ratio(sim("sim.cal.scan_steps"), events), "ratio");
  report.add("sim.allocs_per_event", ratio(allocs, events), "ratio");
  report.add("bgp.updates_received", sim("bgp.updates_received"), "count");
  report.add("bgp.sends_elided_ratio", ratio(sim("bgp.sends_elided"), sends),
             "ratio");
  report.add("bgp.adj_rib_in.memo_hit_ratio",
             sim.hit_ratio("bgp.adj_rib_in.memo"), "ratio");
  report.add("bgp.loc_rib.memo_hit_ratio", sim.hit_ratio("bgp.loc_rib.memo"),
             "ratio");
  report.add("bgp.static.visits",
             sim("bgp.static.up_visits") + sim("bgp.static.across_visits") +
                 sim("bgp.static.down_visits"),
             "count");
  report.add("bgp.static.seeded_routes", sim("bgp.static.seeded_routes"),
             "count");
  report.add("collector.records", records, "count");
  report.add("collector.records_per_event", ratio(records, events), "ratio");
  report.add("labeling.dataset_s", dataset_s, "s");
  report.add("labeling.dataset_paths",
             static_cast<double>(dataset.path_count()), "count");
  report.add("labeling.dataset_ases", static_cast<double>(dataset.as_count()),
             "count");
  report.add("labeling.dedup_drop_share",
             ratio(static_cast<double>(campaign.labeled.size() - distinct),
                   static_cast<double>(campaign.labeled.size())),
             "ratio");
  report.add("core.mh_s", mh_s, "s");
  report.add("core.mh.proposals_per_s", ratio(mcmc("mcmc.mh.proposals"), mh_s),
             "1/s");
  report.add("core.mh.accept_ratio", mh.acceptance_rate, "ratio");
  report.add("core.hmc_s", hmc_s, "s");
  report.add("core.hmc.leapfrog_per_s",
             ratio(mcmc("mcmc.hmc.leapfrog_steps"), hmc_s), "1/s");
  report.add("core.hmc.accept_ratio", hmc.acceptance_rate, "ratio");
  report.add("core.hmc.divergences", mcmc("mcmc.hmc.divergences"), "count");
  report.add("core.post_s", post_s, "s");
  report.add("core.pinpoint_upgrades",
             static_cast<double>(verdict.upgraded.size()), "count");
  const stats::ConfusionMatrix matrix =
      core::evaluate(dataset, verdict.categories,
                     campaign.plan.detectable_dampers())
          .matrix;
  report.add("core.verdict_precision", matrix.precision(), "ratio");
  report.add("core.verdict_recall", matrix.recall(), "ratio");
  report.add("core.kernel_dispatch",
             static_cast<double>(core::kernels::active_level()), "level");
  return out;
}

/// Stage 3a: labeling over the finished store, timed from outside
/// (run_campaign labels internally).
void traced_relabel(const experiment::CampaignResult& campaign,
                    TraceRecorder& rec, Report& report) {
  const std::int64_t root = rec.open("labeling.relabel", -1, kRelabelRequest);
  std::vector<double> per_prefix_ms;
  std::size_t labeled = 0, rfd = 0;
  double label_s = 0.0, observed_s = 0.0;
  timed(rec, "labeling.label", root, kRelabelRequest, label_s, [&] {
    for (const experiment::BeaconDeployment& b : campaign.beacons) {
      const auto t0 = SteadyClock::now();
      const auto paths = labeling::label_paths(
          campaign.store, b.prefix, b.schedule, campaign.config.signature);
      per_prefix_ms.push_back(1e3 * seconds_since(t0));
      labeled += paths.size();
      for (const labeling::LabeledPath& p : paths) rfd += p.rfd ? 1 : 0;
    }
  });
  timed(rec, "labeling.observed", root, kRelabelRequest, observed_s, [&] {
    for (const experiment::BeaconDeployment& b : campaign.beacons)
      (void)labeling::observed_paths(campaign.store, b.prefix);
  });
  rec.close(root);
  ++report.attempted;
  if (labeled != campaign.labeled.size())
    report.fail("relabeling the store gave a different path count");

  report.add("labeling.label_s", label_s, "s");
  report.add("labeling.observed_s", observed_s, "s");
  report.add("labeling.paths", static_cast<double>(labeled), "count");
  report.add("labeling.rfd_share",
             ratio(static_cast<double>(rfd), static_cast<double>(labeled)),
             "ratio");
  report.add("labeling.relabel_ms", median(per_prefix_ms), "ms");
}

/// Stage 3b: the campaign's generator call again, and a K=4 partition.
void traced_topology(const experiment::CampaignResult& campaign,
                     TraceRecorder& rec, Report& report) {
  const experiment::CampaignConfig& config = campaign.config;
  const std::int64_t root = rec.open("topology.setup", -1, kTopologyRequest);
  double generate_s = 0.0, partition_s = 0.0;
  const topology::AsGraph graph =
      timed(rec, "topology.generate", root, kTopologyRequest, generate_s, [&] {
        stats::Rng rng(config.seed);
        return topology::generate(config.topology, rng);
      });
  const topology::Partition partition =
      timed(rec, "topology.partition", root, kTopologyRequest, partition_s, [&] {
        topology::PartitionConfig partition_config;
        partition_config.shards = 4;
        return topology::partition_graph(campaign.graph, partition_config);
      });
  rec.close(root);
  ++report.attempted;
  if (graph.as_count() + config.beacon_sites != campaign.graph.as_count())
    report.fail("regenerated topology differs from the campaign's");

  report.add("topology.generate_s", generate_s, "s");
  report.add("topology.partition_s", partition_s, "s");
  report.add("topology.partition.cut_edges",
             static_cast<double>(partition.cut_edges), "count");
}

/// Stage 4: becaused over the campaign.
void traced_service(const experiment::CampaignResult& campaign,
                    std::uint64_t seed, TraceRecorder& rec, Report& report) {
  const std::int64_t root = rec.open("service.session", -1, kServiceRequest);
  const std::vector<bgp::Prefix> prefixes = beacon_prefixes(campaign);
  const std::size_t half = campaign.store.size() / 2;
  util::ThreadPool pool(kPoolWorkers);
  const BroughtUp up = bring_up(campaign, pool, half, seed, report, &rec, root);
  const MixedResult mixed =
      run_mixed(*up.daemon, campaign.store, half, prefixes, 2,
                kTracedMixedSeconds, seed, report, &rec, root);
  // Snapshot the full store, every prefix's answer current.
  up.daemon->replay(campaign.store, half + mixed.fed);
  for (const bgp::Prefix& prefix : prefixes) (void)up.daemon->query(prefix);
  double snapshot_s = 0.0, restore_s = 0.0;
  const std::string snapshot =
      timed(rec, "service.snapshot", root, kServiceRequest, snapshot_s,
            [&] { return up.daemon->save_snapshot(); });
  service::Daemon restored(service_config(seed), &pool);
  timed(rec, "service.restore", root, kServiceRequest, restore_s,
        [&] { restored.restore_snapshot(snapshot); });
  rec.close(root);
  ++report.attempted;
  if (restored.save_snapshot() != snapshot)
    report.fail("snapshot did not round-trip byte for byte");

  report.add("service.replay_ns_per_update",
             1e9 * ratio(up.replay_s, static_cast<double>(up.replayed)), "ns");
  report.add("service.cold_build_ms", median(up.cold_ms), "ms");
  report.add("service.hit_p99_us_under_ingest",
             interpolated_quantile(mixed.hit_us, 0.99), "us");
  report.add("service.refreshes", static_cast<double>(mixed.refreshes),
             "count");
  report.add("service.cache_hits", static_cast<double>(mixed.hits), "count");
  report.add("service.refresh_share",
             ratio(static_cast<double>(mixed.refreshes),
                   static_cast<double>(mixed.refreshes + mixed.hits)),
             "ratio");
  report.add("service.feeder_late_max_ms", mixed.late_max_ms, "ms");
  report.add("service.snapshot_mb",
             static_cast<double>(snapshot.size()) / (1024.0 * 1024.0), "MB");
  report.add("service.restore_s", restore_s, "s");
}

}  // namespace

Report run_traced(const Options& options) {
  Report report;
  TraceRecorder rec;
  const experiment::CampaignConfig config =
      is_study_workload(options.workload) ? study_campaign(options.workload, 0)
                                          : service_campaign();
  // Member 0's sampler seeds, as in the untraced study-* runs.
  const experiment::InferenceConfig inference =
      study_inference(options.smoke, sub_seed(options.seed, 0));

  obs::set_enabled(false);
  std::vector<StudyOutcome> references;
  const auto reference = [&] {
    ++report.attempted;
    references.push_back(run_study(config, inference));
    if (const std::string problem = check_study(references.back());
        !problem.empty())
      report.fail("reference study: " + problem);
  };

  reference();
  double traced_s = 0.0;
  {
    ++report.attempted;
    const TracedStudy traced = traced_study(config, inference, rec, report);
    traced_s = traced.seconds;
    std::printf("verdict digest traced %016llx untraced %016llx\n",
                static_cast<unsigned long long>(traced.digest),
                static_cast<unsigned long long>(references[0].digest));
    if (traced.digest != references[0].digest)
      report.fail("traced stages changed the verdict digest");
    traced_relabel(traced.campaign, rec, report);
    traced_topology(traced.campaign, rec, report);
    traced_service(traced.campaign, options.seed, rec, report);
  }
  reference();  // the traced campaign is gone: memory stays one campaign deep
  if (references[1].digest != references[0].digest)
    report.fail("the reference study's verdict digest changed between runs");
  const double study_s =
      0.5 * (references[0].seconds + references[1].seconds);
  report.add("experiment.study_s", study_s, "s");
  report.add("trace.overhead", ratio(traced_s, study_s), "ratio");

  const std::vector<Span> spans = rec.spans();
  if (!write_chrome_trace(options.trace_path, spans))
    report.fail("cannot write trace " + options.trace_path);
  std::printf("trace: %zu spans -> %s\n", spans.size(),
              options.trace_path.c_str());
  return report;
}

}  // namespace because::bench_e2e
