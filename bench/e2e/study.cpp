// study-* workloads: the paper's batch job, timed from beacon campaign to
// verdict (experiment::run_campaign + experiment::run_inference).
//
// Every study of a run has its own inputs: study k runs corpus member k
// with sampler seeds drawn from (--seed, k), so no study can reuse another
// study's work. The first kWarmupStudies are the set-up: they let the
// allocator, caches and any lazily built library state warm up, so that
// cost shows in setup_s rather than in the first timed study. The timed
// studies follow until --seconds is used (at least the workload's
// min_timed); the first min_timed of them, the same campaigns in every
// run, give the instructions per verdict. On study-650 the verdicts,
// scored against the deployment's detectable dampers and summed over the
// run's studies, must clear a quality floor.
#include <cstdio>
#include <exception>
#include <optional>

#include "core/evaluate.hpp"
#include "e2e.hpp"
#include "instructions.hpp"
#include "study.hpp"
#include "workloads.hpp"

namespace because::bench_e2e {

bool is_study_workload(const std::string& name) {
  for (const StudyWorkload& w : study_workloads())
    if (w.name == name) return true;
  return false;
}

StudyOutcome run_study(const experiment::CampaignConfig& campaign_config,
                       const experiment::InferenceConfig& inference_config) {
  StudyOutcome out;
  const std::uint64_t instructions_before = instructions_retired();
  const auto start = SteadyClock::now();
  const experiment::CampaignResult campaign =
      experiment::run_campaign(campaign_config);
  const experiment::InferenceResult verdict = experiment::run_inference(
      campaign.labeled, campaign.site_set(), inference_config);
  out.seconds = seconds_since(start);
  out.instructions = instructions_retired() - instructions_before;

  out.digest = verdict_digest(verdict.dataset, verdict.categories,
                              verdict.upgraded);
  out.matrix = core::evaluate(verdict.dataset, verdict.categories,
                              campaign.plan.detectable_dampers())
                   .matrix;
  out.events = campaign.events_executed;
  out.records = campaign.store.size();
  out.labeled = campaign.labeled.size();
  out.dataset_ases = verdict.dataset.as_count();
  return out;
}

std::string check_study(const StudyOutcome& outcome) {
  if (outcome.events == 0) return "campaign executed no events";
  if (outcome.records == 0) return "collectors recorded nothing";
  if (outcome.labeled == 0) return "labeling produced no paths";
  if (outcome.matrix.total() != outcome.dataset_ases)
    return "verdict does not cover every measured AS";
  return "";
}

namespace {

/// The first study in a process runs 5-20% slower than later ones (the
/// allocator's mmap threshold and arenas, page faults, caches); the
/// warm-up studies absorb that and give setup_s a median of three.
constexpr std::size_t kWarmupStudies = 3;

}  // namespace

Report run_study_workload(const Options& options) {
  const StudyWorkload* workload = nullptr;
  for (const StudyWorkload& w : study_workloads())
    if (w.name == options.workload) workload = &w;
  const std::size_t warmups = options.smoke ? 1 : kWarmupStudies;
  const std::size_t min_timed = options.smoke ? 1 : workload->min_timed;

  Report report;
  stats::ConfusionMatrix matrix;
  std::uint64_t events = 0, records = 0;
  // Runs corpus member `member`; its outcome, or nothing when it threw.
  const auto study = [&](std::size_t member) -> std::optional<StudyOutcome> {
    const std::string what =
        "study of corpus member " + std::to_string(member);
    ++report.attempted;
    StudyOutcome outcome;
    try {
      outcome = run_study(
          study_campaign(options.workload, member),
          study_inference(options.smoke, sub_seed(options.seed, member)));
    } catch (const std::exception& e) {
      report.fail(what + " threw: " + e.what());
      return std::nullopt;
    }
    std::printf("study member %zu (%s): %.4f s, %llu instructions, %llu "
                "events, verdict digest %016llx\n",
                member, member < warmups ? "warm-up" : "timed",
                outcome.seconds,
                static_cast<unsigned long long>(outcome.instructions),
                static_cast<unsigned long long>(outcome.events),
                static_cast<unsigned long long>(outcome.digest));
    if (const std::string problem = check_study(outcome); !problem.empty())
      report.fail(what + ": " + problem);
    matrix.true_positives += outcome.matrix.true_positives;
    matrix.false_positives += outcome.matrix.false_positives;
    matrix.true_negatives += outcome.matrix.true_negatives;
    matrix.false_negatives += outcome.matrix.false_negatives;
    events += outcome.events;
    records += outcome.records;
    return outcome;
  };

  std::vector<double> setups;
  for (std::size_t member = 0; member < warmups; ++member)
    if (const std::optional<StudyOutcome> s = study(member))
      setups.push_back(s->seconds);

  std::vector<double> times, instructions;
  double rss_mb = 0.0;
  const auto measure_start = SteadyClock::now();
  for (std::size_t member = warmups;; ++member) {
    // Peak memory and the instruction median cover the studies every run
    // completes: a faster program studies more campaigns, and must not
    // report the peak or the mix of campaigns a slower one never reached.
    if (member - warmups == min_timed) rss_mb = peak_rss_mb();
    // After min_timed studies, the next one starts only when it is
    // expected to finish inside the measured time.
    if (member - warmups >= min_timed &&
        (options.smoke ||
         seconds_since(measure_start) + median(times) > options.seconds))
      break;
    if (const std::optional<StudyOutcome> s = study(member)) {
      times.push_back(s->seconds);
      if (member - warmups < min_timed)
        instructions.push_back(static_cast<double>(s->instructions));
    }
  }
  const double measured_s = seconds_since(measure_start);

  // A verdict quality floor on the paper-scale workload (measured ~0.9
  // precision / ~0.4 recall summed over a run's studies): a change that
  // breaks the inference must not pass as a speed-up. The larger workloads
  // run too few detectable dampers per campaign for a stable floor.
  if (!options.smoke && options.workload == "study-650" &&
      (matrix.precision() < 0.6 || matrix.recall() < 0.2))
    report.fail("verdict quality below the floor: precision " +
                std::to_string(matrix.precision()) + ", recall " +
                std::to_string(matrix.recall()));

  std::printf("studies: %zu warm-up + %zu timed in %.3f s measured (median "
              "%.4f s per study); %llu events, %llu records, confusion tp=%zu "
              "fp=%zu fn=%zu tn=%zu\n",
              setups.size(), times.size(), measured_s, median(times),
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(records), matrix.true_positives,
              matrix.false_positives, matrix.false_negatives,
              matrix.true_negatives);

  report.add("setup_s", median(setups), "s");
  report.add("verdict_instructions", median(instructions), "instr");
  report.add("peak_rss_mb", rss_mb, "MB");
  return report;
}

}  // namespace because::bench_e2e
