// EventRecorder / Recording — per-process append-only event logs and their
// deterministic merge. One recorder per process, no sharing on the produce
// side: a threaded backend hands each shard its processes' recorders with no
// synchronization and the streams are merged (or streamed) after the fact.
// Recording is passive — it never schedules work, touches protocol state or
// blocks the producer — so enabling it cannot perturb a run (the determinism
// regression pins this for both storage modes).
//
// Two storage modes behind the same `record()` interface:
//  * VectorRecorder — unbounded std::vector, the post-hoc default: the whole
//    run is kept and merged()/serialized at the end.
//  * RingRecorder (obs/ring_recorder.h) — bounded SPSC ring drained live by
//    a collector thread (obs/collector.h) into streaming sinks; memory is
//    capacity x processes and overflow drops events (with drop accounting)
//    instead of growing.
#pragma once

#include <memory>
#include <vector>

#include "common/check.h"
#include "obs/event.h"

namespace koptlog {

class RingRecorder;

class EventRecorder {
 public:
  explicit EventRecorder(ProcessId pid) : pid_(pid) {}
  virtual ~EventRecorder() = default;

  /// Append one event, stamping the owning process id and the per-process
  /// emission sequence number. The ring recorder overrides this to weave
  /// overflow markers into the stream with correctly ordered stamps.
  virtual void record(ProtocolEvent e) {
    stamp(e);
    push(std::move(e));
  }

  ProcessId pid() const { return pid_; }
  /// Events accepted so far (a ring recorder's dropped events are counted
  /// separately, see RingRecorder::dropped()).
  virtual size_t size() const = 0;
  /// Append the retained events, in emission order, to `out`. For a ring
  /// recorder this is only the residual window and is only safe once the
  /// producer and consumer threads are quiesced.
  virtual void snapshot(std::vector<ProtocolEvent>& out) const = 0;
  virtual void clear() { next_seq_ = 0; }

 protected:
  /// Storage-specific append; `e` is already stamped.
  virtual void push(ProtocolEvent e) = 0;

  /// Stamp a recorder-synthesized event (ring overflow markers) without
  /// going through record().
  void stamp(ProtocolEvent& e) {
    e.pid = pid_;
    e.seq = next_seq_++;
  }

 private:
  ProcessId pid_;
  uint64_t next_seq_ = 0;
};

/// The unbounded in-memory recorder: keeps every event for post-hoc merge,
/// serialization and audit.
class VectorRecorder final : public EventRecorder {
 public:
  explicit VectorRecorder(ProcessId pid) : EventRecorder(pid) {}

  const std::vector<ProtocolEvent>& events() const { return events_; }
  size_t size() const override { return events_.size(); }
  void snapshot(std::vector<ProtocolEvent>& out) const override {
    out.insert(out.end(), events_.begin(), events_.end());
  }
  void clear() override {
    EventRecorder::clear();
    events_.clear();
  }

 protected:
  void push(ProtocolEvent e) override { events_.push_back(std::move(e)); }

 private:
  std::vector<ProtocolEvent> events_;
};

enum class RecordMode {
  kVector,  ///< unbounded, post-hoc (the default)
  kRing,    ///< bounded SPSC rings, drained live by an EventCollector
};

struct RecordingOptions {
  RecordMode mode = RecordMode::kVector;
  /// Per-process ring capacity (events), ring mode only. Rounded up to a
  /// power of two.
  size_t ring_capacity = 4096;
};

/// One recorder per process, mergeable into a single causally-ordered
/// stream: merged() orders by (t, pid, seq), which is a deterministic total
/// order. Per-process streams are already time- and seq-ordered, so it is a
/// k-way merge of the streams, one copy per event and no whole-stream sort;
/// a stream found out of order is stable-sorted alone first, so the result
/// always equals a stable sort of the concatenated streams.
class Recording {
 public:
  explicit Recording(int n) : Recording(n, RecordingOptions{}) {}
  Recording(int n, const RecordingOptions& opt);

  int n() const { return static_cast<int>(recorders_.size()); }
  RecordMode mode() const { return mode_; }

  EventRecorder& recorder(ProcessId pid) {
    KOPT_CHECK(pid >= 0 && pid < n());
    return *recorders_[static_cast<size_t>(pid)];
  }
  const EventRecorder& recorder(ProcessId pid) const {
    KOPT_CHECK(pid >= 0 && pid < n());
    return *recorders_[static_cast<size_t>(pid)];
  }
  /// Null unless mode() == kRing.
  RingRecorder* ring(ProcessId pid);

  size_t total_events() const {
    size_t total = 0;
    for (const auto& r : recorders_) total += r->size();
    return total;
  }

  /// Sum of overflow-dropped events across all ring recorders (0 in vector
  /// mode).
  uint64_t total_dropped() const;

  std::vector<ProtocolEvent> merged() const;

  void clear() {
    for (auto& r : recorders_) r->clear();
  }

 private:
  RecordMode mode_;
  std::vector<std::unique_ptr<EventRecorder>> recorders_;
};

}  // namespace koptlog
