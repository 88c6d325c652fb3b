#include "obs/event_recorder.h"

#include <algorithm>
#include <span>

#include "obs/ring_recorder.h"

namespace koptlog {

Recording::Recording(int n, const RecordingOptions& opt) : mode_(opt.mode) {
  KOPT_CHECK(n > 0);
  recorders_.reserve(static_cast<size_t>(n));
  for (ProcessId pid = 0; pid < n; ++pid) {
    if (mode_ == RecordMode::kRing) {
      recorders_.push_back(
          std::make_unique<RingRecorder>(pid, opt.ring_capacity));
    } else {
      recorders_.push_back(std::make_unique<VectorRecorder>(pid));
    }
  }
}

RingRecorder* Recording::ring(ProcessId pid) {
  if (mode_ != RecordMode::kRing) return nullptr;
  return static_cast<RingRecorder*>(&recorder(pid));
}

uint64_t Recording::total_dropped() const {
  if (mode_ != RecordMode::kRing) return 0;
  uint64_t total = 0;
  for (const auto& r : recorders_) {
    total += static_cast<const RingRecorder*>(r.get())->dropped();
  }
  return total;
}

std::vector<ProtocolEvent> Recording::merged() const {
  auto before = [](const ProtocolEvent& a, const ProtocolEvent& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.pid != b.pid) return a.pid < b.pid;
    return a.seq < b.seq;
  };
  // Each process's stream in emission order: a vector recorder's events
  // where they are, a ring's residual window copied out. A stream that is
  // not already in (t, pid, seq) order (only a hand-built recording) is
  // stable-sorted on its own copy.
  const size_t k = recorders_.size();
  std::vector<std::vector<ProtocolEvent>> copies(k);
  std::vector<std::span<const ProtocolEvent>> streams(k);
  for (size_t i = 0; i < k; ++i) {
    const EventRecorder& r = *recorders_[i];
    if (mode_ == RecordMode::kVector) {
      streams[i] = static_cast<const VectorRecorder&>(r).events();
    } else {
      r.snapshot(copies[i]);
      streams[i] = copies[i];
    }
    if (!std::is_sorted(streams[i].begin(), streams[i].end(), before)) {
      if (copies[i].empty()) r.snapshot(copies[i]);
      std::stable_sort(copies[i].begin(), copies[i].end(), before);
      streams[i] = copies[i];
    }
  }

  // k-way merge over a min-heap of stream heads. Ties between streams go to
  // the lower index, so the output equals one stable sort of the streams
  // concatenated in pid order.
  std::vector<size_t> pos(k, 0);
  auto later = [&](size_t a, size_t b) {  // heap order: true if a after b
    const ProtocolEvent& ea = streams[a][pos[a]];
    const ProtocolEvent& eb = streams[b][pos[b]];
    if (before(eb, ea)) return true;
    return !before(ea, eb) && b < a;
  };
  std::vector<size_t> heap;
  heap.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    if (!streams[i].empty()) heap.push_back(i);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<ProtocolEvent> out;
  out.reserve(total_events());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const size_t i = heap.back();
    out.push_back(streams[i][pos[i]]);
    if (++pos[i] < streams[i].size()) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return out;
}

}  // namespace koptlog
