#include "obs/event_sink.h"

#include <cstdio>
#include <sstream>

#include "obs/export.h"
#include "obs/health/health_io.h"
#include "obs/trace_io.h"

namespace koptlog {

// ---------------------------------------------------------------------------
// JsonlWriterSink
// ---------------------------------------------------------------------------

JsonlWriterSink::JsonlWriterSink(const std::string& path, int n) : out_(path) {
  if (!out_) return;
  out_ << "{\"kind\":\"meta\",\"version\":1,\"n\":" << n << "}\n";
  ok_ = out_.good();
}

void JsonlWriterSink::on_event(const ProtocolEvent& e) {
  if (!ok_) return;
  line_.clear();
  append_event_json(line_, e);
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++events_written_;
}

void JsonlWriterSink::tick() {
  if (!ok_) return;
  out_.flush();
  ok_ = out_.good();
}

void JsonlWriterSink::close() {
  if (!out_.is_open()) return;
  out_.flush();
  ok_ = ok_ && out_.good();
  out_.close();
}

// ---------------------------------------------------------------------------
// MetricsSnapshotSink
// ---------------------------------------------------------------------------

MetricsSnapshotSink::MetricsSnapshotSink(std::string path)
    : path_(std::move(path)) {}

void MetricsSnapshotSink::on_event(const ProtocolEvent& e) {
  stats_.inc("obs.events_total");
  stats_.inc("obs.events_" + std::string(event_kind_name(e.kind)));

  if (e.pid < 0) return;
  const size_t p = static_cast<size_t>(e.pid);
  if (p >= per_process_.size()) per_process_.resize(p + 1);
  PerProcess& pp = per_process_[p];

  switch (e.kind) {
    case EventKind::kBufferHold:
      (e.recv_side ? pp.recv_hold_since : pp.send_hold_since)[e.msg] = e.t;
      break;
    case EventKind::kBufferRelease: {
      // A send-side hold ends with the sender's release of the same msg.
      auto it = pp.send_hold_since.find(e.msg);
      if (it != pp.send_hold_since.end()) {
        stats_.sample("obs.hold_time_us", static_cast<double>(e.t - it->second));
        pp.send_hold_since.erase(it);
      }
      break;
    }
    case EventKind::kDeliver: {
      // A recv-side hold ends with the receiver's deliver of the same msg.
      auto it = pp.recv_hold_since.find(e.msg);
      if (it != pp.recv_hold_since.end()) {
        stats_.sample("obs.recv_hold_time_us",
                      static_cast<double>(e.t - it->second));
        pp.recv_hold_since.erase(it);
      }
      break;
    }
    case EventKind::kStorageFlush:
      pp.last_flush = e.t;
      break;
    case EventKind::kProgressNotify:
      if (pp.last_flush >= 0) {
        stats_.sample("obs.flush_to_notify_us",
                      static_cast<double>(e.t - pp.last_flush));
      }
      break;
    case EventKind::kRollback:
      pp.last_rollback = e.t;
      break;
    case EventKind::kOutputCommit:
      if (pp.last_rollback >= 0) {
        stats_.sample("obs.rollback_to_recommit_us",
                      static_cast<double>(e.t - pp.last_rollback));
        pp.last_rollback = -1;
      }
      break;
    case EventKind::kRecorderDrop:
      stats_.inc("obs.dropped_events", e.undone);
      break;
    default:
      break;
  }
}

void MetricsSnapshotSink::tick() {
  if (path_.empty()) return;
  std::string err;
  bool ok = write_file_atomic(
      path_,
      [this](std::ostream& out) {
        write_prometheus_text(stats_, out);
        if (extra_) extra_(out);
      },
      err);
  if (ok) ++snapshots_written_;
}

void MetricsSnapshotSink::close() { tick(); }

// ---------------------------------------------------------------------------
// LiveAuditSink
// ---------------------------------------------------------------------------

LiveAuditSink::LiveAuditSink(LiveAudit& audit, bool announce)
    : audit_(audit), announce_(announce) {}

void LiveAuditSink::on_event(const ProtocolEvent& e) {
  audit_.on_event(e);
  if (announce_ && !announced_ && !audit_.ok()) {
    announced_ = true;
    std::fprintf(stderr, "live audit VIOLATION: %s\n",
                 audit_.first_violation().c_str());
  }
}

}  // namespace koptlog
