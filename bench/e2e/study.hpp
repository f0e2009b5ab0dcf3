// One campaign -> verdict study, shared by the study-* workloads and the
// traced pass.
#pragma once

#include <cstdint>
#include <string>

#include "experiment/campaign.hpp"
#include "experiment/pipeline.hpp"
#include "stats/classification.hpp"

namespace because::bench_e2e {

struct StudyOutcome {
  double seconds = 0.0;  ///< run_campaign + run_inference wall time
  std::uint64_t instructions = 0;  ///< retired in the same span, all threads
  std::uint64_t digest = 0;
  stats::ConfusionMatrix matrix;  ///< verdict vs detectable dampers
  std::uint64_t events = 0;
  std::size_t records = 0;
  std::size_t labeled = 0;
  std::size_t dataset_ases = 0;
};

/// Time one study and count its instructions (both stop when
/// run_inference returns), then score its verdict against the deployment's
/// detectable dampers.
StudyOutcome run_study(const experiment::CampaignConfig& campaign_config,
                       const experiment::InferenceConfig& inference_config);

/// Empty when the outcome passes the output checks, else the problem.
std::string check_study(const StudyOutcome& outcome);

}  // namespace because::bench_e2e
