#include "exec/threaded_cluster.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/process.h"
#include "obs/health/health.h"

namespace koptlog {

namespace {
ThreadedCluster::EngineFactory default_engine() {
  return [](ProcessId pid, const ClusterConfig& cfg, ClusterApi& api,
            std::unique_ptr<Application> app) -> std::unique_ptr<RecoveryProcess> {
    return std::make_unique<Process>(pid, cfg.n, cfg.protocol, api,
                                     std::move(app));
  };
}

// An RNG fork label such as "p3". Built by append: GCC 12 reports a false
// -Wrestrict on `"p" + std::to_string(i)` in Release builds.
std::string fork_label(const char* prefix, int i) {
  std::string label = prefix;
  label += std::to_string(i);
  return label;
}
}  // namespace

// ---------------------------------------------------------------------------
// ShardApi
// ---------------------------------------------------------------------------

ThreadedCluster::ShardApi::ShardApi(ThreadedCluster& host, ProcessId pid)
    : host_(host),
      pid_(pid),
      data_rng_(Rng(host.cfg_.seed)
                    .fork("data-net")
                    .fork(fork_label("p", pid))),
      control_rng_(Rng(host.cfg_.seed)
                       .fork("control-net")
                       .fork(fork_label("p", pid))) {
  if (host.cfg_.measure_tracking) {
    meter_ = std::make_unique<wire::TrackingMeter>(host.cfg_.n,
                                                   host.cfg_.tracking_channels);
  }
}

Scheduler& ThreadedCluster::ShardApi::scheduler() {
  return host_.shard_of(pid_);
}

const Tracer& ThreadedCluster::ShardApi::tracer() const {
  return host_.tracer_;
}

bool ThreadedCluster::ShardApi::draining() const {
  return host_.draining_.load(std::memory_order_acquire);
}

EventRecorder* ThreadedCluster::ShardApi::recorder(ProcessId pid) {
  return host_.recording_ ? &host_.recording_->recorder(pid) : nullptr;
}

SimTime ThreadedCluster::ShardApi::data_arrival(ProcessId to, size_t bytes) {
  SimTime t =
      host_.clock_.now() + host_.cfg_.data_latency.sample(data_rng_, bytes);
  if (host_.cfg_.fifo) {
    SimTime& last = last_data_arrival_[to];
    if (t <= last) t = last + 1;
    last = t;
  }
  return t;
}

void ThreadedCluster::ShardApi::route_app_msg(AppMsg msg) {
  KOPT_CHECK(msg.to >= 0 && msg.to < host_.cfg_.n);
  size_t bytes = msg.wire_bytes(host_.cfg_.protocol.null_stable_entries);
  if (meter_) {
    // Passive: what the delta encoding would have shipped; the latency
    // charge below still uses the protocol's own wire accounting.
    size_t delta_bytes = meter_->on_route(msg);
    int nnz = msg.tdv.non_null_count();
    stats_.inc("track.bytes_sent", static_cast<int64_t>(delta_bytes));
    stats_.inc("track.nnz", nnz);
    stats_.inc("track.msgs");
    if (host_.h_track_bytes_ != nullptr) host_.h_track_bytes_->inc(delta_bytes);
    if (host_.h_track_nnz_ != nullptr)
      host_.h_track_nnz_->inc(static_cast<uint64_t>(nnz));
  }
  host_.deliver_app_at(data_arrival(msg.to, bytes), std::move(msg));
}

void ThreadedCluster::ShardApi::broadcast_announcement(const Announcement& a) {
  // Append to the reliable history BEFORE any delivery is scheduled: a
  // process that restarts later replays the log suffix past its cursor, so
  // no delivery dropped on a down process can ever be lost (duplicates are
  // absorbed by the receiver's announcement journal).
  host_.announce_log_.append(a);
  ThreadedCluster& host = host_;
  if (host.h_fanout_ != nullptr) host.h_fanout_->inc();
  if (host.opt_.announce_fanout >= 1 && host.shards() > 1) {
    // Tree dissemination: deliver to this shard's own processes right here
    // (we are on the origin shard's worker thread — position 0 of the
    // tree), then forward to at most D child shards. Each child delivers
    // locally and forwards onward, so the origin's cost is O(D) instead of
    // O(S).
    int origin_shard = host.shard_of_pid(pid_);
    host.deliver_announcement_local(origin_shard, a);
    host.forward_announcement_tree(origin_shard, 0, a);
    return;
  }
  // Flat fan-out: one job per destination *shard* (a multicast hop: one
  // control-latency sample and one mailbox push each), not one per
  // process; the job applies the announcement to every local process on
  // its own thread.
  for (int s = 0; s < host.shards(); ++s) {
    auto [lo, hi] = host.shard_pids_[static_cast<size_t>(s)];
    if (lo >= hi || (hi - lo == 1 && lo == a.from)) continue;
    SimTime lat =
        host.cfg_.control_latency.sample(control_rng_, Announcement::kWireBytes);
    host.shards_[static_cast<size_t>(s)]->schedule_at(
        host.clock_.now() + lat, [&host, lo, hi, a] {
          for (ProcessId to = lo; to < hi; ++to) {
            if (to == a.from) continue;
            RecoveryProcess& p = *host.slot(to).engine;
            if (!p.alive()) continue;  // restart catch-up replays the log
            p.executor().submit([&p, a] { p.handle_announcement(a); });
          }
        });
  }
}

void ThreadedCluster::deliver_announcement_local(int shard,
                                                 const Announcement& a) {
  auto [lo, hi] = shard_pids_[static_cast<size_t>(shard)];
  for (ProcessId to = lo; to < hi; ++to) {
    if (to == a.from) continue;
    RecoveryProcess& p = *slot(to).engine;
    if (!p.alive()) continue;  // restart catch-up replays the log
    p.executor().submit([&p, a] { p.handle_announcement(a); });
  }
}

void ThreadedCluster::forward_announcement_tree(int origin_shard, int position,
                                                const Announcement& a) {
  const int S = shards();
  const int D = opt_.announce_fanout;
  const int me = (origin_shard + position) % S;
  Rng& rng = shard_forward_rngs_[static_cast<size_t>(me)];
  for (int c = position * D + 1; c <= position * D + D && c < S; ++c) {
    const int child = (origin_shard + c) % S;
    SimTime lat = cfg_.control_latency.sample(rng, Announcement::kWireBytes);
    tree_hops_.fetch_add(1, std::memory_order_relaxed);
    if (h_tree_hops_ != nullptr) h_tree_hops_->inc();
    shards_[static_cast<size_t>(child)]->schedule_at(
        clock_.now() + lat, [this, origin_shard, c, child, a] {
          deliver_announcement_local(child, a);
          forward_announcement_tree(origin_shard, c, a);
        });
  }
}

void ThreadedCluster::ShardApi::broadcast_log_progress(
    const LogProgressMsg& lp) {
  ThreadedCluster& host = host_;
  // Per-destination latencies as before, but submitted as one batch per
  // destination shard: one inbox splice instead of n-1 contended pushes.
  std::vector<Scheduler::TimedAction> batch;
  for (int s = 0; s < host.shards(); ++s) {
    auto [lo, hi] = host.shard_pids_[static_cast<size_t>(s)];
    batch.clear();
    batch.reserve(static_cast<size_t>(hi - lo));
    for (ProcessId to = lo; to < hi; ++to) {
      if (to == lp.from) continue;
      SimTime lat =
          host.cfg_.control_latency.sample(control_rng_, lp.wire_bytes());
      batch.push_back({host.clock_.now() + lat, [&host, to, lp] {
                         RecoveryProcess& p = *host.slot(to).engine;
                         // Periodic re-broadcasts make a dropped one harmless.
                         if (!p.alive()) return;
                         p.executor().submit([&p, lp] { p.handle_log_progress(lp); });
                       }});
    }
    if (!batch.empty()) {
      host.shards_[static_cast<size_t>(s)]->schedule_batch(std::move(batch));
      batch = {};
    }
  }
}

void ThreadedCluster::ShardApi::send_ack(ProcessId acker, ProcessId sender,
                                         MsgId id) {
  KOPT_CHECK(sender >= 0 && sender < host_.cfg_.n);
  (void)acker;  // this api IS the acker; its rng samples the channel
  constexpr size_t kAckBytes = 4 + 4 + 8;
  ThreadedCluster& host = host_;
  host.shard_of(sender).schedule_at(
      data_arrival(sender, kAckBytes), [&host, sender, id] {
        RecoveryProcess& p = *host.slot(sender).engine;
        if (!p.alive()) return;
        p.executor().submit([&p, id] { p.handle_ack(id); });
      });
}

void ThreadedCluster::ShardApi::send_dep_query(const DepQuery& q) {
  KOPT_CHECK(q.target.pid >= 0 && q.target.pid < host_.cfg_.n);
  stats_.inc("ddt.queries");
  SimTime lat =
      host_.cfg_.control_latency.sample(control_rng_, DepQuery::kWireBytes);
  ThreadedCluster& host = host_;
  host.shard_of(q.target.pid).schedule_at(host.clock_.now() + lat, [&host, q] {
    RecoveryProcess& p = *host.slot(q.target.pid).engine;
    if (!p.alive()) return;  // the requester re-asks
    p.executor().submit([&p, q] { p.handle_dep_query(q); });
  });
}

void ThreadedCluster::ShardApi::send_dep_reply(ProcessId to,
                                               const DepReply& r) {
  KOPT_CHECK(to >= 0 && to < host_.cfg_.n);
  stats_.inc("ddt.replies");
  SimTime lat = host_.cfg_.control_latency.sample(control_rng_, r.wire_bytes());
  ThreadedCluster& host = host_;
  host.shard_of(to).schedule_at(host.clock_.now() + lat, [&host, to, r] {
    RecoveryProcess& p = *host.slot(to).engine;
    if (!p.alive()) return;
    p.executor().submit([&p, r] { p.handle_dep_reply(r); });
  });
}

void ThreadedCluster::ShardApi::commit_output(const OutputRecord& rec) {
  SimTime now = host_.clock_.now();
  stats_.inc("outputs.committed_total");
  {
    std::lock_guard<std::mutex> lk(host_.outputs_mu_);
    // Exactly-once at the outside world: recovery replay re-emits outputs
    // with identical ids; the sink drops the duplicates.
    if (!host_.committed_ids_.insert(rec.id).second) {
      stats_.inc("outputs.duplicate_suppressed");
      return;
    }
    host_.outputs_.push_back(CommittedOutput{rec.id, rec.born_of.pid,
                                             rec.payload, rec.born_of, now});
  }
  host_.committed_count_.fetch_add(1, std::memory_order_relaxed);
  stats_.inc("outputs.committed");
  stats_.sample("output.commit_latency_us",
                static_cast<double>(now - rec.created_at));
}

// ---------------------------------------------------------------------------
// ThreadedCluster
// ---------------------------------------------------------------------------

ThreadedCluster::ThreadedCluster(ClusterConfig cfg, ThreadedOptions opt,
                                 const AppFactory& factory)
    : ThreadedCluster(cfg, opt, factory, default_engine()) {}

ThreadedCluster::ThreadedCluster(ClusterConfig cfg, ThreadedOptions opt,
                                 const AppFactory& factory,
                                 const EngineFactory& engine_factory)
    : cfg_(cfg), opt_(opt), clock_(opt.time_scale) {
  KOPT_CHECK(cfg_.n > 0);
  // The ground-truth oracle assumes a single thread of control; on this
  // backend correctness is established post hoc by auditing the merged
  // event trace instead.
  cfg_.enable_oracle = false;
  opt_.shards = std::clamp(opt_.shards, 1, cfg_.n);
  shards_.reserve(static_cast<size_t>(opt_.shards));
  for (int s = 0; s < opt_.shards; ++s) {
    shards_.push_back(std::make_unique<ThreadedScheduler>(
        clock_, "shard-" + std::to_string(s), opt_.mailbox_capacity));
  }
  KOPT_CHECK_MSG(opt_.announce_fanout >= 0,
                 "announce_fanout must be >= 0 (0 = flat fan-out)");
  shard_forward_rngs_.reserve(static_cast<size_t>(opt_.shards));
  for (int s = 0; s < opt_.shards; ++s) {
    shard_forward_rngs_.push_back(Rng(cfg_.seed)
                                      .fork("announce-tree")
                                      .fork(fork_label("s", s)));
  }
  shard_pids_.assign(static_cast<size_t>(opt_.shards),
                     {cfg_.n, 0});  // empty until a pid lands in the shard
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    auto& [lo, hi] = shard_pids_[static_cast<size_t>(shard_of_pid(pid))];
    lo = std::min(lo, pid);
    hi = std::max(hi, static_cast<ProcessId>(pid + 1));
  }
  if (opt_.health != nullptr) {
    for (int s = 0; s < opt_.shards; ++s) {
      shards_[static_cast<size_t>(s)]->attach_health(
          opt_.health->domain("shard" + std::to_string(s)));
    }
    HealthDomain* dom = opt_.health->domain("cluster");
    h_fanout_ = dom->counter("announce.fanout_batches");
    h_tree_hops_ = dom->counter("announce.tree_hops");
    if (cfg_.measure_tracking) {
      h_track_bytes_ = dom->counter("track.bytes_sent");
      h_track_nnz_ = dom->counter("track.nnz");
    }
    // announce_log_.size() and the commit counter are lock-free reads.
    dom->probe_counter("announce.log_size", [this] {
      return static_cast<uint64_t>(announce_log_.size());
    });
    dom->probe_counter("outputs.committed", [this] {
      return committed_count_.load(std::memory_order_relaxed);
    });
  }
  if (cfg_.record_events)
    recording_ = std::make_unique<Recording>(cfg_.n, cfg_.recording);
  slots_.resize(static_cast<size_t>(cfg_.n));
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    Slot& s = slot(pid);
    s.api = std::make_unique<ShardApi>(*this, pid);
    s.engine = engine_factory(pid, cfg_, *s.api, factory(pid));
  }
}

ThreadedCluster::~ThreadedCluster() { shutdown(); }

int ThreadedCluster::shard_of_pid(ProcessId pid) const {
  return static_cast<int>(static_cast<int64_t>(pid) * opt_.shards / cfg_.n);
}

void ThreadedCluster::start() {
  KOPT_CHECK(!started_ && !stopped_);
  started_ = true;
  for (auto& s : shards_) s->start();
  // Run each start_process on its owning shard (timers must be armed from
  // the thread that will run them); block until every process is up.
  for_each_engine_on_shard([](RecoveryProcess& p) { p.start_process(); });
  if (cfg_.protocol.coordinated_checkpoints) schedule_checkpoint_round();
}

void ThreadedCluster::schedule_checkpoint_round() {
  // The round timer lives on shard 0 and spends process 0's control rng —
  // both confined to shard 0's worker.
  shards_[0]->schedule_after(cfg_.protocol.checkpoint_interval_us, [this] {
    if (draining_.load(std::memory_order_acquire)) return;
    ShardApi& api0 = *slot(0).api;
    api0.stats_.inc("checkpoint.rounds");
    // Marker fan-out batched per destination shard, like the broadcasts.
    std::vector<Scheduler::TimedAction> batch;
    for (int s = 0; s < shards(); ++s) {
      auto [lo, hi] = shard_pids_[static_cast<size_t>(s)];
      batch.clear();
      for (ProcessId to = lo; to < hi; ++to) {
        constexpr size_t kMarkerBytes = 8;
        SimTime lat =
            cfg_.control_latency.sample(api0.control_rng_, kMarkerBytes);
        batch.push_back({clock_.now() + lat, [this, to] {
                           RecoveryProcess& p = *slot(to).engine;
                           if (!p.alive()) return;  // checkpoints at restart
                           p.executor().submit([&p] { p.checkpoint_now(); });
                         }});
      }
      if (!batch.empty()) {
        shards_[static_cast<size_t>(s)]->schedule_batch(std::move(batch));
        batch = {};
      }
    }
    schedule_checkpoint_round();
  });
}

void ThreadedCluster::deliver_app_at(SimTime t, AppMsg msg) {
  shard_of(msg.to).schedule_at(t, [this, m = std::move(msg)]() mutable {
    RecoveryProcess& p = *slot(m.to).engine;
    if (!p.alive()) {
      // The paper leaves lost in-transit messages out of scope (§2 fn. 3):
      // messages addressed to a crashed process are dropped.
      slot(m.to).api->stats_.inc("msgs.dropped_receiver_down");
      return;
    }
    p.executor().submit([&p, m = std::move(m)] { p.handle_app_msg(m); });
  });
}

void ThreadedCluster::inject_at(SimTime t, ProcessId to,
                                const AppPayload& payload) {
  KOPT_CHECK(to >= 0 && to < cfg_.n);
  // Build the message on the destination's shard at send time, then route
  // it through that process's api (same latency model as the simulator's
  // environment path; the extra hop stays on one shard).
  shard_of(to).schedule_at(t, [this, to, payload] {
    AppMsg m;
    m.id = MsgId{kEnvironment,
                 env_seq_.fetch_add(1, std::memory_order_relaxed) + 1};
    m.from = kEnvironment;
    m.to = to;
    m.payload = payload;
    m.tdv = DepVector(cfg_.n);  // the outside world is always stable
    m.born_of = IntervalId{kEnvironment, 0, 0};
    m.sent_at = clock_.now();
    ShardApi& api = *slot(to).api;
    api.stats_.inc("env.injected");
    api.route_app_msg(std::move(m));
  });
}

void ThreadedCluster::fail_at(SimTime t, ProcessId pid) {
  KOPT_CHECK(pid >= 0 && pid < cfg_.n);
  shard_of(pid).schedule_at(t, [this, pid] {
    RecoveryProcess& p = *slot(pid).engine;
    if (!p.alive()) {
      slot(pid).api->stats_.inc("crash.skipped_already_down");
      return;
    }
    p.crash();
    shard_of(pid).schedule_at(
        clock_.now() + cfg_.protocol.restart_delay_us, [this, pid] {
          Slot& s2 = slot(pid);
          RecoveryProcess& p2 = *s2.engine;
          KOPT_CHECK(!p2.alive());
          p2.restart();
          // Reliable announcement delivery: catch the restarted process up
          // on the log suffix past its replay cursor (everything below the
          // cursor was durably journaled before a prior restart; the
          // journal makes re-deliveries no-ops). Entries appended after
          // this size() snapshot had their per-shard delivery scheduled
          // afterwards, so they reach the now-alive process through the
          // normal fan-out path. No O(history) copy, no lock.
          size_t end = announce_log_.size();
          size_t replayed = 0;
          for (size_t i = s2.announce_cursor; i < end; ++i) {
            const Announcement& a = announce_log_.at(i);
            if (a.from == pid) continue;
            p2.executor().submit([&p2, a] { p2.handle_announcement(a); });
            ++replayed;
          }
          s2.api->stats_.inc("announce.catchup_replayed",
                             static_cast<int64_t>(replayed));
          // Advance the cursor only once the replayed announcements are
          // actually journaled: this trailing action runs after every
          // handler above (the executor is FIFO on this shard), and a crash
          // in between wipes it together with the still-queued handlers, so
          // the cursor can never run ahead of the durable journal.
          Slot* sp = &s2;
          p2.executor().submit([sp, end] {
            sp->announce_cursor = std::max(sp->announce_cursor, end);
          });
        });
  });
}

void ThreadedCluster::run_for(SimTime dt) {
  KOPT_CHECK(started_ && !stopped_);
  clock_.sleep_until(clock_.now() + dt);
}

void ThreadedCluster::wait_quiet() {
  auto hard_deadline = std::chrono::steady_clock::now() +
                       std::chrono::seconds(120);
  for (;;) {
    // Pass 1: every shard idle (queue empty, nothing mid-execution)...
    uint64_t before = 0;
    bool all_idle = true;
    for (auto& s : shards_) {
      before += s->executed();
      all_idle = all_idle && s->idle();
    }
    if (all_idle) {
      // ...and pass 2: still idle with no event executed in between. Then
      // nothing is in flight anywhere — only tasks create tasks, and the
      // driver thread is here. idle()'s lock also gives the driver a
      // happens-before edge over everything those tasks wrote.
      uint64_t after = 0;
      bool still_idle = true;
      for (auto& s : shards_) {
        after += s->executed();
        still_idle = still_idle && s->idle();
      }
      if (still_idle && after == before) return;
    }
    KOPT_CHECK_MSG(std::chrono::steady_clock::now() < hard_deadline,
                   "threaded cluster failed to quiesce within 120s real time");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Run `fn(engine)` for every process ON ITS OWNING SHARD THREAD and block
// until all have run. Even when wait_quiet() reports the system idle, the
// workers are not paused — a periodic timer (log-progress flush,
// retransmit) can start touching an engine at any moment, so the driver
// thread must never read engine state directly while workers live. The
// barrier state sits in a shared_ptr so a late notify_one cannot outlive it.
void ThreadedCluster::for_each_engine_on_shard(
    const std::function<void(RecoveryProcess&)>& fn) {
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    int remaining = 0;
  };
  auto barrier = std::make_shared<Barrier>();
  barrier->remaining = cfg_.n;
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    RecoveryProcess* p = slot(pid).engine.get();
    shard_of(pid).schedule_at(clock_.now(), [p, barrier, &fn] {
      fn(*p);
      {
        std::lock_guard<std::mutex> lk(barrier->mu);
        --barrier->remaining;
      }
      barrier->cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lk(barrier->mu);
  barrier->cv.wait(lk, [&barrier] { return barrier->remaining == 0; });
}

void ThreadedCluster::drain() {
  KOPT_CHECK(started_ && !stopped_);
  draining_.store(true, std::memory_order_release);
  constexpr int kMaxRounds = 60;
  for (int round = 0; round < kMaxRounds; ++round) {
    wait_quiet();
    // Probe + nudge each process from its own shard; `dirty` aggregates
    // under the probe mutex.
    std::mutex dirty_mu;
    bool dirty = false;
    for_each_engine_on_shard([&dirty_mu, &dirty](RecoveryProcess& p) {
      bool busy = !p.alive() || !p.quiescent();
      if (p.alive()) {
        RecoveryProcess* pp = &p;
        p.executor().submit([pp] { pp->drain_tick(); });
      }
      if (busy) {
        std::lock_guard<std::mutex> lk(dirty_mu);
        dirty = true;
      }
    });
    wait_quiet();
    if (!dirty) {
      final_now_ = clock_.now();
      return;
    }
  }
  std::mutex diag_mu;
  std::map<ProcessId, std::string> diags;
  for_each_engine_on_shard([&diag_mu, &diags](RecoveryProcess& p) {
    std::ostringstream os;
    os << "P" << p.pid() << (p.alive() ? "" : " DOWN")
       << (p.quiescent() ? "" : " busy") << "; "
       << "  [at " << p.current().str()
       << " recv=" << p.receive_buffer_size()
       << " send=" << p.send_buffer_size()
       << " out=" << p.output_buffer_size()
       << " vol=" << p.storage().log().volatile_count() << "] ";
    std::lock_guard<std::mutex> lk(diag_mu);
    diags[p.pid()] = os.str();
  });
  std::ostringstream os;
  for (const auto& [pid, s] : diags) os << s;
  KOPT_CHECK_MSG(false, "threaded cluster failed to drain: " << os.str());
}

void ThreadedCluster::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  if (final_now_ == 0) final_now_ = clock_.now();
  // Quiesce durable-storage flusher threads first: once drained they stop
  // posting completions, so no storage I/O can call schedule_at on a shard
  // whose event loop has already stopped (which would abort). Only after
  // start(): the barrier inside for_each_engine_on_shard is released by
  // the shard workers, which otherwise never ran.
  if (started_) {
    for_each_engine_on_shard([](RecoveryProcess& p) {
      if (StorageBackend* b = p.storage().backend()) b->quiesce();
    });
  }
  for (auto& s : shards_) s->stop_and_join();
  for (auto& s : slots_) merged_stats_.merge(s.api->stats_);
  // Mailbox contention/batching counters: totals summed across shards,
  // peaks taken as the max (exact — the workers are joined). These land in
  // the same Stats bag as everything else, so --metrics-out's Prometheus
  // dump and the benches pick them up for free.
  auto relaxed = [](const std::atomic<uint64_t>& v) {
    return static_cast<int64_t>(v.load(std::memory_order_relaxed));
  };
  int64_t max_occupancy = 0;
  int64_t max_drain_batch = 0;
  for (const auto& s : shards_) {
    const MailboxCounters& c = s->mailbox_counters();
    merged_stats_.inc("mailbox.pushes", relaxed(c.pushes));
    merged_stats_.inc("mailbox.batch_items", relaxed(c.batch_items));
    merged_stats_.inc("mailbox.batch_splices", relaxed(c.batch_splices));
    merged_stats_.inc("mailbox.drains", relaxed(c.drains));
    merged_stats_.inc("mailbox.drained_events", relaxed(c.drained_events));
    merged_stats_.inc("mailbox.wakeups", relaxed(c.wakeups));
    merged_stats_.inc("mailbox.producer_stalls", relaxed(c.producer_stalls));
    merged_stats_.inc("mailbox.producer_stall_us",
                      relaxed(c.producer_stall_us));
    merged_stats_.inc("mailbox.soft_overflows", relaxed(c.soft_overflows));
    max_occupancy = std::max(max_occupancy, relaxed(c.max_occupancy));
    max_drain_batch = std::max(max_drain_batch, relaxed(c.max_drain_batch));
  }
  merged_stats_.inc("mailbox.max_occupancy", max_occupancy);
  merged_stats_.inc("mailbox.max_drain_batch", max_drain_batch);
  merged_stats_.inc(
      "announce.tree_hops",
      static_cast<int64_t>(tree_hops_.load(std::memory_order_relaxed)));
}

SimTime ThreadedCluster::now_us() const {
  return stopped_ ? final_now_ : clock_.now();
}

Stats& ThreadedCluster::stats() {
  KOPT_CHECK_MSG(stopped_,
                 "call shutdown() before reading threaded-backend stats");
  return merged_stats_;
}

const std::vector<CommittedOutput>& ThreadedCluster::outputs() const {
  return outputs_;
}

RecoveryProcess& ThreadedCluster::engine(ProcessId pid) {
  KOPT_CHECK_MSG(stopped_,
                 "call shutdown() before inspecting threaded-backend engines");
  return *slots_[static_cast<size_t>(pid)].engine;
}

}  // namespace koptlog
