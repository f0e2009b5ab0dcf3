// Instructions retired in user space by the whole process, read from the
// CPU's performance counter (Linux perf_event_open). This is bench_e2e's
// measure of the work a verdict costs.
//
// Why not wall time: on a shared host the same study's wall time swings by
// a third from minute to minute with what other guests do to the shared
// caches (measured IPC 1.2 to 2.0 on one input, clock 4.1 to 4.6 GHz),
// while its instruction count repeats to 0.1% (README.md). Wall times are
// still printed, and the traced pass reports them per layer.
#pragma once

#include <cstdint>

namespace because::bench_e2e {

/// Opens the counter. Call it from main before the process starts any
/// thread: the counter is inherited, so it then covers every thread the
/// process starts later, the library's pools included. Throws
/// std::runtime_error when the kernel or the host offers no such counter.
void open_instruction_counter();

/// User-space instructions retired since open_instruction_counter() by the
/// opening thread and every thread started after it, running or joined.
std::uint64_t instructions_retired();

}  // namespace because::bench_e2e
