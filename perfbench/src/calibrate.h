// Host-speed calibration. The benchmark's reference box is a shared virtual
// machine whose vCPUs switch, over seconds to minutes, between two speeds
// about 1.65x apart (as if scheduled on different host core types); the
// switch moves wall time and CPU time alike. To keep single-threaded wall
// timings comparable across runs, the benchmark times a fixed kernel right
// before and after each simulator run, on the same pinned CPU, and scales
// that run's wall times by reference_kernel_s / measured_kernel_s.
#pragma once

namespace perfbench {

/// Wall time of the kernel on the reference box's fast mode, in seconds:
/// a scaled time reads as if the run had executed at that speed.
inline constexpr double kReferenceKernelS = 0.0023;

/// Best of two timings of a fixed, deterministic kernel that exercises
/// what the protocol stack does most: heap and ordered-set updates,
/// small allocations and std::function calls.
double kernel_seconds();

/// Pin the calling thread (and threads it later creates) to the CPU it is
/// running on. Returns false if the affinity call fails.
bool pin_to_current_cpu();

}  // namespace perfbench
