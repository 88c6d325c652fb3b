#include "calibrate.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <set>
#include <utility>

namespace perfbench {

namespace {

double kernel_once() {
  auto t0 = std::chrono::steady_clock::now();
  std::priority_queue<std::pair<int64_t, uint64_t>> pq;
  std::set<uint64_t> live;
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    pq.push({static_cast<int64_t>(x % 1000000), x});
    live.insert(x % 65536);
    if (pq.size() > 5000) {
      acc += pq.top().second;
      pq.pop();
    }
    if (live.size() > 2000) live.erase(live.begin());
    std::function<void()> f = [&acc, x] { acc += x >> 3; };
    f();
  }
  volatile uint64_t sink = acc;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double kernel_seconds() {
  return std::min(kernel_once(), kernel_once());
}

bool pin_to_current_cpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace perfbench
