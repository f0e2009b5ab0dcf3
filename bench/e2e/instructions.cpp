#include "instructions.hpp"

#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace because::bench_e2e {

namespace {

int g_fd = -1;

}  // namespace

void open_instruction_counter() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof(attr);
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  // User space only: what an unprivileged process may count, and the part
  // of the work the program itself decides.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = 1;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1,
                          PERF_FLAG_FD_CLOEXEC);
  if (fd < 0)
    throw std::runtime_error(
        std::string("no user-space instructions counter (perf_event_open: ") +
        std::strerror(errno) + ")");
  g_fd = static_cast<int>(fd);
}

std::uint64_t instructions_retired() {
  // value, time enabled, time running (read_format above)
  std::uint64_t v[3] = {};
  if (g_fd < 0 || read(g_fd, v, sizeof(v)) != static_cast<ssize_t>(sizeof(v)))
    throw std::runtime_error("cannot read the instructions counter");
  if (v[2] == 0) throw std::runtime_error("the instructions counter never ran");
  // When the PMU is shared with other events the kernel time-slices them;
  // scale the count as perf does.
  if (v[2] < v[1])
    return static_cast<std::uint64_t>(static_cast<double>(v[0]) *
                                      static_cast<double>(v[1]) /
                                      static_cast<double>(v[2]));
  return v[0];
}

}  // namespace because::bench_e2e
