// bench_e2e's span recorder: wall-clock spans around the public calls the
// benchmark makes into each layer, kept in memory and written out once as
// Chrome trace-event JSON (loadable by Perfetto and chrome://tracing).
//
// A span has a name ("<layer>.<call>"), a start and an end, the span that
// caused it, a request id shared by every span of one request, and a lane
// (the trace's thread track). A layer's self time is its span's duration
// minus the part of that interval its child spans cover, so the self times
// of a span tree sum to the root's duration.
//
// This is bench-side wallclock instrumentation: the library's own obs
// tracer stays sim-time-only.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace because::bench_e2e {

struct Span {
  std::string name;
  double start_us = 0.0;  ///< microseconds since the recorder's origin
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index of the causing span; -1 for a root
  std::uint64_t request = 0;
  std::uint32_t lane = 0;
};

/// Thread-safe in-memory span store.
class TraceRecorder {
 public:
  TraceRecorder() : origin_(std::chrono::steady_clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Open a span starting now; close() it with the returned id.
  std::int64_t open(std::string name, std::int64_t parent = -1,
                    std::uint64_t request = 0, std::uint32_t lane = 0) {
    const double start = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, start, parent, request, lane});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void close(std::int64_t id) {
    const double end = now_us();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end_us = end;
  }

  /// Append a finished span with explicit times.
  std::int64_t add(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span. A null recorder makes it a no-op, so traced and untraced runs
/// share one code path.
class SpanScope {
 public:
  SpanScope(TraceRecorder* recorder, std::string name, std::int64_t parent = -1,
            std::uint64_t request = 0, std::uint32_t lane = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr)
      id_ = recorder_->open(std::move(name), parent, request, lane);
  }
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::int64_t id() const { return id_; }

 private:
  TraceRecorder* recorder_;
  std::int64_t id_ = -1;
};

/// Self time of every span (parallel to `spans`): its duration minus the
/// union of its children's intervals clipped to it. Children on other lanes
/// may overlap each other; the union counts shared time once.
inline std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us,
                                                                 s.end_us);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the union covered so far
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, reach);
      const double b = std::min(end, hi);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(end, hi));
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Chrome trace-event JSON: one complete ("X") event per span, lanes as
/// thread ids, parent/request/self time in args.
inline std::string chrome_trace_json(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_us(spans);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string name;
    for (char c : s.name) {
      if (c == '"' || c == '\\') name.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) name.push_back(c);
    }
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %lld, "
                  "\"request\": %llu, \"self_us\": %.3f}}",
                  s.lane, s.start_us, s.end_us - s.start_us, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request), self[i]);
    out += "{\"name\": \"" + name + "\", \"cat\": \"" + layer + buf;
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

/// Write the trace to `path`; false when the file cannot be written.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json(spans);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace because::bench_e2e
