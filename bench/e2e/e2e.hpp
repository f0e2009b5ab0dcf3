// Shared pieces of bench_e2e: options, the result report, timing and
// statistics helpers, and the entry points of each workload family.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/categorize.hpp"
#include "labeling/dataset.hpp"
#include "trace.hpp"

namespace because::bench_e2e {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< length of the measured phase
  std::string trace_path;  ///< non-empty: run the traced pass, write here
  bool smoke = false;      ///< one short study; for the tier-1 smoke test
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run prints: the metrics plus the correctness tally.
/// `failed` counts operations that threw or failed a correctness check.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record one failed operation and say why on stderr.
  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "bench_e2e: FAILED: %s\n", what.c_str());
  }
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in [0, 1]; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::max(1.0, p * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(rank + 0.999999) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Quantile p of a large sample of clock-quantized latencies, read by
/// linear interpolation inside the quantum that holds rank p*n (the
/// grouped-data median formula). Many equal tick counts then still give a
/// value that moves with the distribution, where a plain order statistic
/// would read the same whole tick count run after run.
inline double interpolated_quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double target = p * static_cast<double>(v.size());
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(target));
  const double x = v[idx];
  const auto lo = std::lower_bound(v.begin(), v.end(), x);
  const auto hi = std::upper_bound(v.begin(), v.end(), x);
  double quantum = 0.0;  // smallest gap between distinct values
  for (std::size_t i = 1; i < v.size(); ++i) {
    const double gap = v[i] - v[i - 1];
    if (gap > 0.0 && (quantum == 0.0 || gap < quantum)) quantum = gap;
  }
  const double below = static_cast<double>(lo - v.begin());
  const double equal = static_cast<double>(hi - lo);
  return x - 0.5 * quantum + quantum * (target - below) / equal;
}

/// Exact latency samples from a long closed loop in bounded memory: keeps
/// every stride-th value, and when full drops every second kept value and
/// doubles the stride. Each client thread owns one.
class SampleBuffer {
 public:
  explicit SampleBuffer(std::size_t capacity = 1u << 18)
      : capacity_(capacity) {
    values_.reserve(capacity_);
  }

  void add(double value) {
    if (seen_++ % stride_ != 0) return;
    if (values_.size() == capacity_) {
      for (std::size_t i = 0; i < capacity_ / 2; ++i)
        values_[i] = values_[2 * i];
      values_.resize(capacity_ / 2);
      stride_ *= 2;
      if ((seen_ - 1) % stride_ != 0) return;
    }
    values_.push_back(value);
  }

  std::uint64_t seen() const { return seen_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
};

/// Peak resident set of this process so far, in MB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// splitmix64: the i-th well-spread sub-seed of a workload seed.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Digest of a verdict: every (AS, category) pair in dataset order, then
/// the ASes the pinpointing step upgraded.
inline std::uint64_t verdict_digest(
    const labeling::PathDataset& data,
    const std::vector<core::Category>& categories,
    const std::vector<topology::AsId>& upgraded) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t n = 0; n < categories.size(); ++n) {
    h = fnv1a(h, data.as_at(n));
    h = fnv1a(h, static_cast<std::uint64_t>(categories[n]));
  }
  h = fnv1a(h, upgraded.size());
  for (topology::AsId as : upgraded) h = fnv1a(h, as);
  return h;
}

// -- workload families -------------------------------------------------------

bool is_study_workload(const std::string& name);
bool is_service_workload(const std::string& name);

/// Untraced measured run of a study-* workload.
Report run_study_workload(const Options& options);
/// Untraced measured run of becaused-read / becaused-fresh.
Report run_service_workload(const Options& options);
/// The traced pass of any workload: per-layer metrics and a Chrome trace.
Report run_traced(const Options& options);

}  // namespace because::bench_e2e
