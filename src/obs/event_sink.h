// EventSink — consumers of the live event stream drained by the
// EventCollector (obs/collector.h). All calls arrive on the collector
// thread: on_event() once per drained event (per-process order preserved,
// cross-process interleaving unspecified), tick() periodically for
// wall-clock housekeeping (flush, snapshot export), close() exactly once
// after the final event.
//
// Three sinks cover the CLI surface:
//  * JsonlWriterSink — streams the trace to a growing JSONL file, flushed
//    on every tick so a koptlog_audit --follow (or a human with tail -f)
//    sees events while the run is live. The file is a valid trace stream
//    for read_trace_jsonl / audit_trace, modulo global (t, pid, seq) order,
//    which neither requires.
//  * MetricsSnapshotSink — folds the stream into per-kind counters and the
//    phase-latency histograms (buffer hold time, storage-flush-to-progress-
//    notify lag, rollback-to-recommit time) and rewrites a Prometheus text
//    file atomically (tmp + rename) on every tick, instead of only at exit.
//  * LiveAuditSink — feeds a LiveAudit and surfaces its first violation on
//    stderr the moment it happens (fail-fast for long runs).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/event.h"
#include "obs/live_audit.h"
#include "sim/stats.h"

namespace koptlog {

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const ProtocolEvent& e) = 0;
  virtual void tick() {}
  virtual void close() {}
};

class JsonlWriterSink final : public EventSink {
 public:
  /// Writes the meta header immediately; ok() reports open/write failures.
  JsonlWriterSink(const std::string& path, int n);

  bool ok() const { return ok_; }
  uint64_t events_written() const { return events_written_; }

  void on_event(const ProtocolEvent& e) override;
  void tick() override;
  void close() override;

 private:
  std::ofstream out_;
  std::string line_;  ///< reused for every event's line
  bool ok_ = false;
  uint64_t events_written_ = 0;
};

class MetricsSnapshotSink final : public EventSink {
 public:
  /// `path` may be empty: latencies and counters still accumulate (for the
  /// end-of-run metrics dump) but no snapshot file is written.
  explicit MetricsSnapshotSink(std::string path);

  void on_event(const ProtocolEvent& e) override;
  /// Rewrite the snapshot file (atomic tmp + rename).
  void tick() override;
  void close() override;

  /// Stream-derived metrics so far; merge into the run's Stats after the
  /// collector stops.
  const Stats& stats() const { return stats_; }
  uint64_t snapshots_written() const { return snapshots_written_; }

  /// Appended to every snapshot after the Stats section (runtime health
  /// series — see obs/health/health_io.h). Runs on the collector thread.
  void set_extra(std::function<void(std::ostream&)> extra) {
    extra_ = std::move(extra);
  }

 private:
  struct PerProcess {
    /// Open buffer holds awaiting their release (send) / deliver (recv).
    std::map<MsgId, SimTime> send_hold_since;
    std::map<MsgId, SimTime> recv_hold_since;
    SimTime last_flush = -1;     ///< t of the latest storage_flush
    SimTime last_rollback = -1;  ///< t of the latest rollback, cleared on
                                 ///< the next output_commit
  };

  std::string path_;
  Stats stats_;
  std::vector<PerProcess> per_process_;
  uint64_t snapshots_written_ = 0;
  std::function<void(std::ostream&)> extra_;
};

class LiveAuditSink final : public EventSink {
 public:
  /// Does not own `audit`; the caller keeps it alive past close() to read
  /// the final report. When `announce` is set the first violation is
  /// printed to stderr as soon as it is detected.
  LiveAuditSink(LiveAudit& audit, bool announce);

  void on_event(const ProtocolEvent& e) override;

 private:
  LiveAudit& audit_;
  bool announce_;
  bool announced_ = false;
};

}  // namespace koptlog
