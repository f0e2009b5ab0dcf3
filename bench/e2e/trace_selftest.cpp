// Self-test of trace.hpp: self-time arithmetic on nested and overlapping
// spans, and the Chrome trace writer. Prints the JSON of its test trace on
// stdout so the ctest wrapper can check that it parses.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "trace.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %.9f want %.9f\n", what, got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using because::bench_e2e::Span;
  using because::bench_e2e::TraceRecorder;

  // Tree 1, no overlap:      root [0, 100]
  //   a [10, 40] with child a1 [15, 25];  b [50, 90]
  // Tree 2, overlapping lanes: root2 [200, 300]
  //   x [210, 260] lane 1;  y [240, 280] lane 2;  z [290, 320] overruns
  TraceRecorder rec;
  const auto root = rec.add({"experiment.study", 0, 100, -1, 1, 0});
  const auto a = rec.add({"experiment.campaign", 10, 40, root, 1, 0});
  rec.add({"sim.\"run\"", 15, 25, a, 1, 0});
  rec.add({"core.mh", 50, 90, root, 1, 0});
  const auto root2 = rec.add({"service.session", 200, 300, -1, 2, 0});
  rec.add({"service.query", 210, 260, root2, 2, 1});
  rec.add({"service.query", 240, 280, root2, 2, 2});
  rec.add({"service.snapshot", 290, 320, root2, 2, 0});
  const std::vector<Span> spans = rec.spans();
  const std::vector<double> self = because::bench_e2e::self_times_us(spans);

  expect_near(self[0], 30.0, "root self time");
  expect_near(self[1], 20.0, "nested parent self time");
  expect_near(self[2], 10.0, "leaf self time");
  expect_near(self[3], 40.0, "sibling self time");
  expect_near(self[0] + self[1] + self[2] + self[3], 100.0,
              "self times of a tree sum to the root's duration");
  // Overlapping children count shared time once; the overrun is clipped.
  expect_near(self[4], 100.0 - 70.0 - 10.0, "root over overlapping children");
  expect_near(self[5], 50.0, "overlapping child x");
  expect_near(self[6], 40.0, "overlapping child y");

  // A live span opened and closed through the RAII scope has end >= start
  // and a parent link.
  {
    because::bench_e2e::SpanScope outer(&rec, "service.session");
    because::bench_e2e::SpanScope inner(&rec, "service.query", outer.id(), 7, 3);
  }
  const std::vector<Span> live = rec.spans();
  if (live.size() != 10 || live[9].parent != 8 || live[9].request != 7 ||
      live[8].end_us < live[9].end_us || live[9].end_us < live[9].start_us) {
    std::fprintf(stderr, "FAIL live span bookkeeping\n");
    ++failures;
  }
  because::bench_e2e::SpanScope disabled(nullptr, "ignored");
  if (disabled.id() != -1) {
    std::fprintf(stderr, "FAIL null-recorder scope recorded a span\n");
    ++failures;
  }

  std::fputs(because::bench_e2e::chrome_trace_json(live).c_str(), stdout);
  if (failures != 0) std::fprintf(stderr, "%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
