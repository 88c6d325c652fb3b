#include "spans.h"

#include <array>
#include <atomic>

namespace perfbench {

namespace {

constexpr std::array<const char*, static_cast<size_t>(SpanName::kCount)>
    kNames = {
        "phase.start",          "phase.run_for",
        "phase.drain",          "phase.shutdown",
        "obs.merged",           "obs.write",
        "obs.read",             "obs.audit",
        "oracle.verify",        "core.app_msg",
        "core.announcement",    "core.log_progress",
        "core.ack",             "core.dep_query",
        "core.dep_reply",       "core.crash",
        "core.restart",         "core.drain_tick",
        "core.checkpoint",      "core.start_process",
        "net.route",            "net.progress_broadcast",
        "net.announcement",     "runtime.commit_output",
        "app.deliver",
};

/// The calling thread's buffer in the current generation; a clear() starts
/// a new generation, so a thread re-registers instead of touching a freed
/// buffer.
struct LocalSlot {
  ThreadSpans* buf = nullptr;
  uint64_t gen = 0;
};
thread_local LocalSlot t_slot;
std::atomic<uint64_t> g_generation{1};

}  // namespace

const char* span_name(SpanName n) { return kNames[static_cast<size_t>(n)]; }

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

ThreadSpans& SpanLog::local() {
  uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_slot.buf != nullptr && t_slot.gen == gen) return *t_slot.buf;
  std::lock_guard<std::mutex> lk(mu_);
  auto buf = std::make_unique<ThreadSpans>();
  buf->thread = static_cast<int>(threads_.size());
  buf->spans.reserve(1 << 14);
  t_slot = LocalSlot{buf.get(), gen};
  threads_.push_back(std::move(buf));
  return *t_slot.buf;
}

std::map<SpanName, SpanTotals> SpanLog::totals(int main_thread,
                                               double* worker_root_s) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<SpanName, SpanTotals> out;
  double worker_root = 0;
  for (const auto& t : threads_) {
    std::vector<int64_t> child_ns(t->spans.size(), 0);
    for (const Span& s : t->spans) {
      if (s.parent >= 0)
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      SpanTotals& agg = out[s.name];
      agg.calls += 1;
      agg.total_s += dur;
      agg.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
      if (s.parent < 0 && t->thread != main_thread) worker_root += dur;
    }
  }
  if (worker_root_s != nullptr) *worker_root_s = worker_root;
  return out;
}

void SpanLog::write_tsv(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os << "thread\tindex\tparent\tname\tstart_ns\tend_ns\n";
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      os << t->thread << '\t' << i << '\t' << s.parent << '\t'
         << span_name(s.name) << '\t' << s.start_ns << '\t' << s.end_ns
         << '\n';
    }
  }
}

void SpanLog::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  threads_.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace perfbench
