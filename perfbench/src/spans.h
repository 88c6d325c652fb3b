// In-memory span recorder for the traced benchmark run. A span is one timed
// call across a layer boundary: its name, start and end (steady clock, ns)
// and the span that was open on the same thread when it began (its parent).
// Each thread appends to its own buffer, so recording takes no lock on the
// hot path; buffers are registered once per thread under a mutex and read
// only after the threads that fill them have stopped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Every boundary the traced run times. The prefix before the first '.'
/// of span_name() is the layer the span is charged to.
enum class SpanName : uint8_t {
  // phases, main thread
  kStart,
  kRunFor,
  kDrain,
  kShutdown,
  kMerged,
  kTraceWrite,
  kTraceRead,
  kAudit,
  kOracleVerify,
  // engine (RecoveryProcess) handlers
  kAppMsg,
  kAnnouncement,
  kLogProgress,
  kAck,
  kDepQuery,
  kDepReply,
  kCrash,
  kRestart,
  kDrainTick,
  kCheckpoint,
  kStartProcess,
  // ClusterApi calls the engine makes
  kRoute,
  kBroadcastProgress,
  kBroadcastAnnouncement,
  kCommitOutput,
  // application
  kDeliver,
  kCount
};

const char* span_name(SpanName n);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same thread's buffer, -1 = root
  SpanName name = SpanName::kStart;
};

struct ThreadSpans {
  int thread = 0;  ///< registration order; 0 is the first thread to record
  std::vector<Span> spans;
  std::vector<int32_t> open;  ///< stack of open span indices
};

/// Aggregate of one span name over a set of spans.
struct SpanTotals {
  int64_t calls = 0;
  double total_s = 0;  ///< inclusive
  double self_s = 0;   ///< minus the time covered by direct children
};

class SpanLog {
 public:
  static SpanLog& instance();

  /// Recording is off unless enabled; a disabled ScopedSpan costs one load.
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The calling thread's buffer (registered on first use).
  ThreadSpans& local();

  /// Per-name totals over every thread, plus the summed durations of the
  /// root spans recorded on threads other than `main_thread`.
  std::map<SpanName, SpanTotals> totals(int main_thread,
                                        double* worker_root_s) const;

  /// One line per span: thread, index, parent, name, start_ns, end_ns.
  void write_tsv(std::ostream& os) const;

  void clear();

 private:
  SpanLog() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName n) {
    SpanLog& log = SpanLog::instance();
    if (!log.enabled()) return;
    buf_ = &log.local();
    int32_t parent = buf_->open.empty() ? -1 : buf_->open.back();
    idx_ = static_cast<int32_t>(buf_->spans.size());
    buf_->spans.push_back(Span{now_ns(), 0, parent, n});
    buf_->open.push_back(idx_);
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    buf_->spans[static_cast<size_t>(idx_)].end_ns = now_ns();
    buf_->open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* buf_ = nullptr;
  int32_t idx_ = -1;
};

}  // namespace perfbench
