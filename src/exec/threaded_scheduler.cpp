#include "exec/threaded_scheduler.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "obs/health/health.h"

namespace koptlog {

namespace {
// Set for the lifetime of a worker's loop(): identifies shard workers so
// backpressure never blocks them (see header).
thread_local bool tl_on_worker = false;

void update_max(std::atomic<uint64_t>& slot, uint64_t v) {
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

MonotonicClock::MonotonicClock(double time_scale)
    : start_(std::chrono::steady_clock::now()), scale_(time_scale) {
  KOPT_CHECK(time_scale > 0.0);
}

SimTime MonotonicClock::now() const {
  auto elapsed = std::chrono::steady_clock::now() - start_;
  double real_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          elapsed)
          .count();
  return static_cast<SimTime>(real_us / scale_);
}

std::chrono::steady_clock::time_point MonotonicClock::real_deadline(
    SimTime t) const {
  auto real_ns = static_cast<int64_t>(
      std::llround(static_cast<double>(t) * scale_ * 1000.0));
  return start_ + std::chrono::nanoseconds(real_ns);
}

void MonotonicClock::sleep_until(SimTime t) const {
  std::this_thread::sleep_until(real_deadline(t));
}

ThreadedScheduler::ThreadedScheduler(const MonotonicClock& clock,
                                     std::string name, size_t capacity)
    : clock_(clock), name_(std::move(name)), capacity_(capacity) {}

ThreadedScheduler::~ThreadedScheduler() { stop_and_join(); }

bool ThreadedScheduler::on_worker_thread() { return tl_on_worker; }

void ThreadedScheduler::attach_health(HealthDomain* dom) {
  KOPT_CHECK(!worker_.joinable());  // attach before start()
  if (dom == nullptr) return;
  h_drain_latency_ = dom->histogram("sched.drain_latency_us");
  h_drain_batch_ = dom->histogram("sched.drain_batch");
  // Pull metrics: evaluated on the sampler thread; pending() and the
  // MailboxCounters atomics are thread-safe reads.
  dom->probe_gauge("sched.inbox_pending",
                   [this] { return static_cast<int64_t>(pending()); });
  dom->probe_counter("sched.pushes", [this] {
    return counters_.pushes.load(std::memory_order_relaxed);
  });
  dom->probe_counter("sched.wakeups", [this] {
    return counters_.wakeups.load(std::memory_order_relaxed);
  });
  dom->probe_counter("sched.soft_overflows", [this] {
    return counters_.soft_overflows.load(std::memory_order_relaxed);
  });
  dom->probe_counter("sched.producer_stall_us", [this] {
    return counters_.producer_stall_us.load(std::memory_order_relaxed);
  });
}

void ThreadedScheduler::acquire_slot() {
  // Only called when capacity_ != 0: unbounded schedulers skip slot
  // accounting entirely (two fewer contended RMWs per event).
  if (occupancy_.load(std::memory_order_relaxed) >=
      static_cast<int64_t>(capacity_)) {
    if (tl_on_worker) {
      // A worker blocked on a full peer inbox while its own inbox fills up
      // would deadlock the pair; workers spill over the bound instead.
      counters_.soft_overflows.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Stall BEFORE reserving the slot: a stalled producer holds nothing
      // the worker cannot retire, so the occupancy floor is the visible
      // queue and the wait always terminates. The bound is therefore soft
      // by up to one in-flight reservation per concurrent producer.
      counters_.producer_stalls.fetch_add(1, std::memory_order_relaxed);
      auto t0 = std::chrono::steady_clock::now();
      stalled_producers_.fetch_add(1, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> lk(cap_mu_);
        cap_cv_.wait(lk, [this] {
          return stop_.load(std::memory_order_acquire) ||
                 occupancy_.load(std::memory_order_relaxed) <
                     static_cast<int64_t>(capacity_);
        });
      }
      stalled_producers_.fetch_sub(1, std::memory_order_relaxed);
      auto stalled_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      counters_.producer_stall_us.fetch_add(static_cast<uint64_t>(stalled_us),
                                            std::memory_order_relaxed);
    }
  }
  int64_t occ = occupancy_.fetch_add(1, std::memory_order_relaxed) + 1;
  update_max(counters_.max_occupancy, static_cast<uint64_t>(occ));
}

void ThreadedScheduler::release_slot() {
  int64_t occ = occupancy_.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (occ < static_cast<int64_t>(capacity_) &&
      stalled_producers_.load(std::memory_order_seq_cst) > 0) {
    // The lock/unlock pairs with the stalled producer's wait so the notify
    // cannot slip between its predicate check and its sleep.
    { std::lock_guard<std::mutex> lk(cap_mu_); }
    cap_cv_.notify_all();
  }
}

void ThreadedScheduler::wake_worker(bool was_empty) {
  // Only the push that made the inbox non-empty owes a wake (the worker
  // drains to empty, so every later push is covered by that one), and only
  // when the worker is actually parked. The fence orders our push before
  // the flag load; park() has the mirror fence between its flag store and
  // its final inbox check, so at least one side sees the other.
  if (!was_empty) return;
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!worker_parked_.load(std::memory_order_relaxed)) return;
  counters_.wakeups.fetch_add(1, std::memory_order_relaxed);
  {
    // Pairs with park(): the worker holds wake_mu_ from its final inbox
    // check until the wait, so acquiring it here means the worker is either
    // already waiting (notify lands) or will re-check the inbox first.
    std::lock_guard<std::mutex> lk(wake_mu_);
  }
  wake_cv_.notify_one();
}

SeqNo ThreadedScheduler::schedule_at(SimTime t, Action fn) {
  KOPT_CHECK(fn != nullptr);
  KOPT_CHECK_MSG(!stop_.load(std::memory_order_acquire),
                 "schedule_at on stopped scheduler " << name_);
  if (capacity_ != 0) acquire_slot();
  SeqNo seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  counters_.pushes.fetch_add(1, std::memory_order_relaxed);
  bool was_empty = inbox_.push(Event{t, seq, std::move(fn)});
  wake_worker(was_empty);
  return seq;
}

void ThreadedScheduler::schedule_batch(std::vector<TimedAction> batch) {
  if (batch.empty()) return;
  KOPT_CHECK_MSG(!stop_.load(std::memory_order_acquire),
                 "schedule_batch on stopped scheduler " << name_);
  counters_.batch_splices.fetch_add(1, std::memory_order_relaxed);
  counters_.batch_items.fetch_add(batch.size(), std::memory_order_relaxed);
  // Pre-link the whole batch outside any shared state, then splice it into
  // the inbox with a single CAS. Slot accounting still runs per item so
  // backpressure sees the true occupancy — but if this (bounded, non-
  // worker) producer is about to stall, the chain built so far must be
  // spliced in first: slots already reserved for invisible events can
  // never be retired by the worker, and holding them while blocking on
  // them would deadlock the producer against itself.
  using Node = MpscMailbox<Event>::Node;
  Node* first = nullptr;
  Node* last = nullptr;
  auto flush_chain = [&] {
    if (first == nullptr) return;
    bool was_empty = inbox_.splice(first, last);
    wake_worker(was_empty);
    first = last = nullptr;
  };
  bool may_stall = capacity_ != 0 && !tl_on_worker;
  for (TimedAction& item : batch) {
    KOPT_CHECK(item.fn != nullptr);
    if (may_stall && occupancy_.load(std::memory_order_relaxed) >=
                         static_cast<int64_t>(capacity_)) {
      flush_chain();
    }
    if (capacity_ != 0) acquire_slot();
    SeqNo seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    Node* n = inbox_.make_node(Event{item.t, seq, std::move(item.fn)});
    // The inbox is drained newest-first then reversed, so link the chain
    // newest-first too: later items in front.
    n->next = first;
    first = n;
    if (last == nullptr) last = n;
  }
  flush_chain();
}

void ThreadedScheduler::start() {
  KOPT_CHECK(!worker_.joinable());
  worker_ = std::thread([this] { loop(); });
}

void ThreadedScheduler::stop_and_join() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  { std::lock_guard<std::mutex> lk(cap_mu_); }
  cap_cv_.notify_all();  // unblock stalled producers
  if (worker_.joinable()) worker_.join();
}

bool ThreadedScheduler::idle() const {
  // A seq number is taken before an event becomes visible and executed_
  // only catches up after the event's action returns, so equality means
  // nothing is in flight (a submit racing this check can only make the
  // scheduler look busy, never falsely idle).
  return next_seq_.load(std::memory_order_acquire) ==
         executed_.load(std::memory_order_acquire);
}

size_t ThreadedScheduler::pending() const {
  uint64_t submitted = next_seq_.load(std::memory_order_acquire);
  uint64_t done = executed_.load(std::memory_order_acquire);
  return submitted > done ? static_cast<size_t>(submitted - done) : 0;
}

void ThreadedScheduler::park(bool has_deadline,
                             std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lk(wake_mu_);
  // Publish "parked" BEFORE the final inbox check (store, fence, load):
  // a producer pushes, fences, then loads the flag, so at least one side
  // sees the other — either the producer observes parked and notifies
  // under wake_mu_, or this check observes its push and skips the wait.
  worker_parked_.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!inbox_.empty(std::memory_order_relaxed) ||
      stop_.load(std::memory_order_acquire)) {
    worker_parked_.store(false, std::memory_order_relaxed);
    return;
  }
  if (has_deadline) {
    wake_cv_.wait_until(lk, deadline);
  } else {
    wake_cv_.wait(lk);
  }
  worker_parked_.store(false, std::memory_order_relaxed);
}

void ThreadedScheduler::retire_node(MpscMailbox<Event>::Node* n) {
  n->next = retire_first_;
  retire_first_ = n;
  if (retire_last_ == nullptr) retire_last_ = n;
  ++retire_count_;
  // Flush in batches: one CAS returns 64 nodes to producers, instead of a
  // free-stack CAS per executed event.
  if (retire_count_ >= 64) flush_retired();
}

void ThreadedScheduler::flush_retired() {
  if (retire_first_ == nullptr) return;
  inbox_.recycle(retire_first_, retire_last_);
  retire_first_ = retire_last_ = nullptr;
  retire_count_ = 0;
}

void ThreadedScheduler::loop() {
  using Node = MpscMailbox<Event>::Node;
  tl_on_worker = true;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) break;
    // Level 1 -> level 2: splice the whole inbox into the local deadline
    // queue. One atomic exchange regardless of how many producers pushed,
    // and only (t, seq, node) keys enter the heap — the actions stay put
    // in their mailbox nodes until they run.
    Node* chain = inbox_.drain_chain();
    if (chain != nullptr) {
      size_t n = 0;
      while (chain != nullptr) {
        Node* next = chain->next;
        local_queue_.push(QueuedRef{chain->value.t, chain->value.seq, chain});
        chain = next;
        ++n;
      }
      counters_.drains.fetch_add(1, std::memory_order_relaxed);
      counters_.drained_events.fetch_add(n, std::memory_order_relaxed);
      update_max(counters_.max_drain_batch, n);
      if (h_drain_batch_ != nullptr) h_drain_batch_->observe(n);
      // Peak occupancy is sampled at drain edges (exact per-push tracking
      // is reserved for bounded mode, where acquire_slot maintains it).
      uint64_t in_flight = next_seq_.load(std::memory_order_relaxed) -
                           executed_.load(std::memory_order_relaxed);
      update_max(counters_.max_occupancy, in_flight);
    }
    if (local_queue_.empty()) {
      flush_retired();  // hand cached nodes back before sleeping
      park(/*has_deadline=*/false, {});
      continue;
    }
    auto deadline = clock_.real_deadline(local_queue_.top().t);
    if (deadline > std::chrono::steady_clock::now()) {
      // A push may carry an earlier deadline; park() re-checks the inbox
      // and a producer's wake re-runs the drain above.
      flush_retired();
      park(/*has_deadline=*/true, deadline);
      continue;
    }
    Node* node = local_queue_.top().node;
    const SimTime due = local_queue_.top().t;
    local_queue_.pop();
    Action fn = std::move(node->value.fn);
    node->value.fn = nullptr;  // the node may sit recycled for a while
    retire_node(node);
    if (h_drain_latency_ != nullptr &&
        ++drain_latency_tick_ % kDrainLatencySampleEvery == 0) {
      // Virtual-clock age of the action at execution: how far behind its
      // deadline the shard is running. The worker only executes due events,
      // so the difference is non-negative up to clock granularity.
      SimTime now = clock_.now();
      h_drain_latency_->observe(now > due ? static_cast<uint64_t>(now - due)
                                          : 0);
    }
    fn();          // may schedule on this or any other shard
    fn = nullptr;  // destroy captures before the event is accounted done
    executed_.fetch_add(1, std::memory_order_release);
    if (capacity_ != 0) release_slot();
  }
  // Drop the events still queued, locally or in the inbox, and release
  // their captures now rather than at destruction. Their nodes join the
  // free stack and are freed by ~MpscMailbox.
  while (!local_queue_.empty()) {
    Node* node = local_queue_.top().node;
    local_queue_.pop();
    node->value.fn = nullptr;
    retire_node(node);
  }
  flush_retired();
  inbox_.drain([](Event&& e) { e.fn = nullptr; });
  tl_on_worker = false;
}

}  // namespace koptlog
