// ThreadedScheduler — the real-thread implementation of the Scheduler
// seam: one event-loop worker thread per shard of processes, fed through a
// two-level mailbox. Producers (other shards, the driver) push into a
// lock-free MPSC inbox; the owning worker splices the whole inbox off in
// one batch and merges it into a thread-local deadline queue, so the
// cross-thread critical section is one CAS per batch instead of a mutex
// acquisition plus O(log n) heap push per event under a contended lock.
// A condition variable is used only for parking: exactly the producer
// whose push made the inbox non-empty wakes the worker, so floods of
// pushes coalesce into one futex wake. This two-level mailbox is the only
// cross-shard path: the protocol needs per-process event order and a
// reliable hand-off from its substrate, and the batched spine gives both.
//
// Backpressure: an optional occupancy bound. When the number of
// scheduled-but-unexecuted events reaches the bound, *non-worker*
// producers (the driver injecting load) block until the worker catches
// up — inject floods throttle the producer instead of growing the queue
// without bound. Shard workers are exempt (a worker blocked on a full
// peer inbox while its own inbox fills would deadlock); their
// over-capacity pushes are counted as soft overflows instead.
//
// Unlike the deterministic Simulator, time here is wall-clock: an event's
// deadline is a point on the shared MonotonicClock, the worker sleeps
// until it is due, and two runs interleave differently. Correctness of a
// run is therefore established post hoc — per-process obs/ recorders are
// merged and fed to the trace audit — not by replaying it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "exec/mpsc_mailbox.h"
#include "sim/scheduler.h"

namespace koptlog {

class HealthDomain;
class HealthHistogram;

/// Shared time source for every shard of one ThreadedCluster: virtual
/// microseconds elapsed since construction, scaled from the steady clock.
/// `time_scale` is real microseconds per virtual microsecond — 1.0 runs
/// protocol timers at nominal speed, 0.05 runs them 20x faster (latencies,
/// service costs and timer periods all compress consistently).
class MonotonicClock final : public Clock {
 public:
  explicit MonotonicClock(double time_scale = 1.0);

  SimTime now() const override;

  /// The real-time point at which virtual time `t` is reached.
  std::chrono::steady_clock::time_point real_deadline(SimTime t) const;

  /// Block the calling thread until virtual time `t`.
  void sleep_until(SimTime t) const;

  double time_scale() const { return scale_; }

 private:
  std::chrono::steady_clock::time_point start_;
  double scale_;
};

/// Contention / batching counters a scheduler accumulates over its life.
/// All fields are monotone and cheap (relaxed atomics on the hot path);
/// exact totals once the worker is joined. ThreadedCluster folds them into
/// its merged Stats at shutdown (mailbox.* counters).
struct MailboxCounters {
  std::atomic<uint64_t> pushes{0};           ///< schedule_at calls
  std::atomic<uint64_t> batch_items{0};      ///< events via schedule_batch
  std::atomic<uint64_t> batch_splices{0};    ///< schedule_batch calls
  std::atomic<uint64_t> drains{0};           ///< non-empty inbox splices
  std::atomic<uint64_t> drained_events{0};   ///< events moved by drains
  std::atomic<uint64_t> max_drain_batch{0};  ///< largest single drain
  std::atomic<uint64_t> max_occupancy{0};    ///< peak scheduled-unexecuted
  std::atomic<uint64_t> wakeups{0};          ///< producer->worker cv wakes
  std::atomic<uint64_t> producer_stalls{0};  ///< bounded pushes that blocked
  std::atomic<uint64_t> producer_stall_us{0};  ///< real us spent blocked
  std::atomic<uint64_t> soft_overflows{0};   ///< worker pushes over capacity
};

class ThreadedScheduler final : public Scheduler {
 public:
  /// `name` labels the worker thread in diagnostics. `capacity` bounds
  /// occupancy for non-worker producers when > 0.
  ThreadedScheduler(const MonotonicClock& clock, std::string name,
                    size_t capacity = 0);
  ~ThreadedScheduler();

  ThreadedScheduler(const ThreadedScheduler&) = delete;
  ThreadedScheduler& operator=(const ThreadedScheduler&) = delete;

  SimTime now() const override { return clock_.now(); }

  /// Thread-safe: any shard (or the driver thread) may enqueue. Deadlines
  /// in the past run as soon as the worker is free, in (t, seq) order.
  /// With a capacity, non-worker callers block while the shard is at
  /// capacity.
  SeqNo schedule_at(SimTime t, Action fn) override;

  /// Submit a whole batch with one CAS splice and at most one wakeup.
  /// Items keep FIFO seq order within the batch.
  void schedule_batch(std::vector<TimedAction> batch) override;

  /// Launch the worker thread. Events scheduled before start() are kept.
  void start();

  /// Ask the worker to exit and join it. Events still queued when the
  /// worker exits never run, and their captures are destroyed before the
  /// join returns.
  /// Idempotent; also called by the destructor. Unblocks stalled producers.
  void stop_and_join();

  /// Queue empty and no event mid-execution. A false return says nothing
  /// stable — use executed() deltas to detect a quiet system.
  bool idle() const;

  /// Events executed so far (monotone; use deltas across idle() passes to
  /// prove no work happened in between).
  uint64_t executed() const { return executed_.load(std::memory_order_acquire); }

  /// Scheduled-but-unexecuted events (inbox + deadline queue).
  size_t pending() const;

  const std::string& name() const { return name_; }
  size_t capacity() const { return capacity_; }
  const MailboxCounters& mailbox_counters() const { return counters_; }

  /// Wire this shard's hot-path telemetry into a health domain: drain
  /// latency + batch-size histograms (updated by the worker) and pull
  /// probes over pending() and the mailbox counters. Must be called before
  /// start(); with no domain attached the worker pays one pointer test per
  /// executed event.
  void attach_health(HealthDomain* dom);

  /// True on any thread currently running a ThreadedScheduler event loop
  /// (used to exempt shard workers from backpressure blocking).
  static bool on_worker_thread();

 private:
  struct Event {
    SimTime t;
    SeqNo seq;
    Action fn;
  };
  // The worker's deadline queue holds 24-byte keys referencing the mailbox
  // nodes in place: heap sifts move PODs, never the events' std::function
  // payloads, and the node is recycled only after its action ran.
  struct QueuedRef {
    SimTime t;
    SeqNo seq;
    MpscMailbox<Event>::Node* node;
  };
  struct LaterRef {
    bool operator()(const QueuedRef& a, const QueuedRef& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void loop();
  /// Worker only: queue a retired node for recycling; flushed to the
  /// mailbox free stack in batches so producers can reuse the memory.
  void retire_node(MpscMailbox<Event>::Node* n);
  void flush_retired();

  /// Producers: account one more scheduled event, block while over
  /// capacity (non-worker threads only), update the occupancy peak.
  void acquire_slot();
  /// Worker: one event retired; wake stalled producers if the
  /// occupancy dropped back under the bound.
  void release_slot();
  /// Wake the worker if it owes us a wake (`was_empty`) and is parked.
  void wake_worker(bool was_empty);
  /// Park until woken or `has_deadline`'s `deadline` passes. Re-checks the
  /// inbox under wake_mu_ so a push can never be missed.
  void park(bool has_deadline, std::chrono::steady_clock::time_point deadline);

  const MonotonicClock& clock_;
  std::string name_;
  const size_t capacity_;

  MpscMailbox<Event> inbox_;
  std::priority_queue<QueuedRef, std::vector<QueuedRef>, LaterRef>
      local_queue_;  // worker-only
  // Worker-only retire chain: nodes whose actions ran, awaiting a batched
  // recycle back to the mailbox free stack.
  MpscMailbox<Event>::Node* retire_first_ = nullptr;
  MpscMailbox<Event>::Node* retire_last_ = nullptr;
  size_t retire_count_ = 0;
  /// Backpressure accounting; maintained only when capacity_ != 0.
  /// (Unbounded schedulers track in-flight work as next_seq_ - executed_:
  /// a seq is taken before an event becomes visible and executed_ catches
  /// up after its action returns, so equality means nothing is in flight.)
  std::atomic<int64_t> occupancy_{0};
  std::atomic<bool> worker_parked_{false};
  std::atomic<int> stalled_producers_{0};
  std::mutex wake_mu_;               // parking only, never guards the queue
  std::condition_variable wake_cv_;  // worker parks here
  std::mutex cap_mu_;
  std::condition_variable cap_cv_;   // bounded producers stall here

  std::atomic<SeqNo> next_seq_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> executed_{0};
  MailboxCounters counters_;
  // Health cells (obs/health). Set once by attach_health() before start();
  // the worker reads them without synchronisation thereafter.
  HealthHistogram* h_drain_latency_ = nullptr;
  HealthHistogram* h_drain_batch_ = nullptr;
  // Drain latency is sampled 1-in-kDrainLatencySampleEvery executed events:
  // at storm rates the per-event budget is a few ns, and a clock read plus
  // histogram observe per event costs ~40% throughput. Worker-local.
  static constexpr uint32_t kDrainLatencySampleEvery = 64;
  uint32_t drain_latency_tick_ = 0;
  std::thread worker_;
};

}  // namespace koptlog
