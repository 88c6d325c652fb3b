// ThreadedCluster — hosts N recovery-layer processes on real threads: the
// processes are block-partitioned into shards, each shard runs one
// ThreadedScheduler event loop, and the host routes application and
// control messages across shards by scheduling delivery tasks into the
// destination shard's two-level mailbox (lock-free MPSC inbox spliced into
// a worker-local deadline queue; see exec/threaded_scheduler.h).
// Broadcasts (announcements, log progress, checkpoint markers) fan out one
// batch submission per destination *shard* rather than one mailbox push
// per destination process.
//
// Everything a process touches is shard-confined: its engine state, its
// Executor, its EventRecorder and its Stats bag live on exactly one worker
// thread, so engine code runs unmodified and unsynchronized. The only
// shared state is the host's (append-only announcement log and mutex-
// guarded output sink, atomic drain flag and environment sequence).
//
// There is no oracle and no determinism here: a run is validated post hoc
// by merging the per-process recorders (deterministic (t, pid, seq) merge)
// and re-verifying Theorems 1-4 with the trace audit (obs/audit.h) —
// exactly the check a production deployment would run.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "core/cluster_api.h"
#include "core/cluster_host.h"
#include "core/recovery_process.h"
#include "exec/announcement_log.h"
#include "exec/threaded_scheduler.h"
#include "obs/event_recorder.h"
#include "wire/delta_codec.h"

namespace koptlog {

class HealthRegistry;
class HealthCounter;

struct ThreadedOptions {
  /// Worker event loops; processes are block-partitioned across them
  /// (shard = pid * shards / n). Clamped to [1, n].
  int shards = 2;
  /// Real microseconds per virtual microsecond (see MonotonicClock): 1.0
  /// runs the protocol's timers at nominal speed, 0.05 runs 20x faster.
  double time_scale = 1.0;
  /// Per-shard occupancy bound (0 = unbounded).
  /// Non-worker producers — the driver injecting load — block while a
  /// shard is at capacity; shard workers are exempt and spill over.
  size_t mailbox_capacity = 0;
  /// Optional runtime health telemetry (obs/health): when set, each shard
  /// attaches a "shard<i>" domain (drain latency/batch histograms, mailbox
  /// probes) and the host a "cluster" domain (announcement fan-out, output
  /// commits). Must outlive the cluster; null = zero instrumentation cost
  /// beyond one pointer test per executed event.
  HealthRegistry* health = nullptr;
  /// Announcement dissemination shape. 0 (default) = the flat fan-out: the
  /// origin schedules one delivery job per destination shard, O(S)
  /// messages from one process. D >= 1 = a D-ary dissemination tree over
  /// the shards rooted at the origin's shard: each shard delivers locally
  /// and forwards the announcement to at most D child shards, so the
  /// origin sends O(D) messages and the announcement reaches every shard
  /// in ceil(log_D(S)) hops. Restart catch-up is unaffected: the
  /// announcement is appended to the reliable log before the first hop,
  /// and re-delivery is idempotent (receiver journal).
  int announce_fanout = 0;
};

class ThreadedCluster final : public ClusterHost {
 public:
  using AppFactory = ClusterHost::AppFactory;
  using EngineFactory = ClusterHost::EngineFactory;

  /// The oracle is force-disabled (it assumes a single thread); set
  /// cfg.record_events and audit the merged trace instead.
  ThreadedCluster(ClusterConfig cfg, ThreadedOptions opt,
                  const AppFactory& factory);
  ThreadedCluster(ClusterConfig cfg, ThreadedOptions opt,
                  const AppFactory& factory,
                  const EngineFactory& engine_factory);
  ~ThreadedCluster() override;

  /// Launch the shard workers and start every process; returns once every
  /// process has initialized (alive, initial checkpoint taken).
  void start() override;

  int size() const override { return cfg_.n; }
  const ClusterConfig& config() const override { return cfg_; }
  int shards() const { return static_cast<int>(shards_.size()); }
  int shard_of_pid(ProcessId pid) const;

  /// Direct access to a shard's event loop, for drivers that pump raw
  /// events into the communication spine (bench_e12's mailbox storm).
  /// The scheduler is thread-safe; submissions ride the same two-level
  /// mailbox as protocol traffic.
  ThreadedScheduler& shard_scheduler(int idx) {
    return *shards_[static_cast<size_t>(idx)];
  }

  void inject_at(SimTime t, ProcessId to, const AppPayload& payload) override;
  void fail_at(SimTime t, ProcessId pid) override;

  /// Sleep the driver thread for `dt` virtual microseconds while the shard
  /// workers run.
  void run_for(SimTime dt) override;

  /// Quiesce: stop periodic timers, then alternate drain_tick rounds with
  /// whole-system quiet detection until every process is alive, quiescent
  /// and every shard queue is empty.
  void drain() override;

  /// Stop and join every shard worker, then merge the per-process stats.
  /// Idempotent; required before stats()/engine() reads.
  void shutdown() override;

  SimTime now_us() const override;

  /// Merged across processes; only available after shutdown().
  Stats& stats() override;

  const std::vector<CommittedOutput>& outputs() const override;
  const Recording* recording() const override { return recording_.get(); }
  Recording* recording_mut() override { return recording_.get(); }

  /// Engine inspection is only race-free once the workers are joined.
  RecoveryProcess& engine(ProcessId pid);

  /// Total events executed across all shard workers (atomic counter reads;
  /// exact once shutdown() has joined the workers). The throughput bench's
  /// numerator.
  uint64_t events_executed() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s->executed();
    return total;
  }

 private:
  /// The per-process view of the cluster: scheduler() is the owning
  /// shard's event loop, stats() an unshared per-process bag, and the rng
  /// streams used to sample this process's outbound latencies are private
  /// to its shard thread.
  class ShardApi final : public ClusterApi {
   public:
    ShardApi(ThreadedCluster& host, ProcessId pid);

    Scheduler& scheduler() override;
    Stats& stats() override { return stats_; }
    const Tracer& tracer() const override;
    void route_app_msg(AppMsg msg) override;
    void broadcast_announcement(const Announcement& a) override;
    void broadcast_log_progress(const LogProgressMsg& lp) override;
    void send_ack(ProcessId acker, ProcessId sender, MsgId id) override;
    void send_dep_query(const DepQuery& q) override;
    void send_dep_reply(ProcessId to, const DepReply& r) override;
    void commit_output(const OutputRecord& rec) override;
    Oracle* oracle() override { return nullptr; }
    EventRecorder* recorder(ProcessId pid) override;
    bool draining() const override;

   private:
    friend class ThreadedCluster;

    /// Arrival time at `to` for a data-plane message sent now: latency
    /// sampled from this process's private stream, clamped monotone per
    /// destination when cfg.fifo (best-effort FIFO — the receiving shard
    /// executes its queue in deadline order).
    SimTime data_arrival(ProcessId to, size_t bytes);

    ThreadedCluster& host_;
    ProcessId pid_;
    Rng data_rng_;
    Rng control_rng_;
    Stats stats_;
    std::map<ProcessId, SimTime> last_data_arrival_;
    /// Per-sender passive delta-encoding meter (cfg.measure_tracking);
    /// shard-confined like everything else in this api.
    std::unique_ptr<wire::TrackingMeter> meter_;
  };

  struct Slot {
    std::unique_ptr<ShardApi> api;
    std::unique_ptr<RecoveryProcess> engine;
    /// Restart catch-up replay cursor into announce_log_: every entry
    /// below it has been durably processed (journaled) by this process.
    /// Touched only on the owning shard thread — the restart task reads
    /// it, and a trailing executor action advances it once the replayed
    /// announcements have actually been handled (a crash in between drops
    /// that action along with the queued handlers, so the cursor never
    /// runs ahead of the journal).
    size_t announce_cursor = 0;
  };

  ThreadedScheduler& shard_of(ProcessId pid) {
    return *shards_[static_cast<size_t>(shard_of_pid(pid))];
  }
  Slot& slot(ProcessId pid) { return slots_[static_cast<size_t>(pid)]; }

  /// Schedule delivery of `msg` into its destination's shard at virtual
  /// time `t`; drops it there if the receiver is down.
  void deliver_app_at(SimTime t, AppMsg msg);
  void schedule_checkpoint_round();

  /// Hand `a` to every live process hosted on `shard` except its origin.
  /// Must run on that shard's worker thread.
  void deliver_announcement_local(int shard, const Announcement& a);
  /// Tree dissemination (opt_.announce_fanout >= 1): forward `a` to the
  /// children of tree position `position`. Positions are relative to the
  /// origin shard (position p lives on shard (origin_shard + p) % S), so
  /// every origin gets a balanced tree without coordination. Runs on
  /// position's shard thread; samples hop latencies from that shard's
  /// private forwarding rng.
  void forward_announcement_tree(int origin_shard, int position,
                                 const Announcement& a);

  /// Run `fn(engine)` for every process on its owning shard thread; blocks
  /// until all have run. The only race-free way for the driver to inspect
  /// engine state while workers live.
  void for_each_engine_on_shard(const std::function<void(RecoveryProcess&)>& fn);

  /// Block until every shard is simultaneously idle and no event executed
  /// between two consecutive idle passes (then nothing can be in flight:
  /// only tasks create tasks, and the driver thread is here). Stale
  /// periodic timers parked in queues are waited out — draining stops them
  /// from re-arming, so queues strictly shrink to empty.
  void wait_quiet();

  ClusterConfig cfg_;
  ThreadedOptions opt_;
  MonotonicClock clock_;
  std::vector<std::unique_ptr<ThreadedScheduler>> shards_;
  /// shard index -> [first pid, last pid) of the block partition.
  std::vector<std::pair<ProcessId, ProcessId>> shard_pids_;
  std::vector<Slot> slots_;
  std::unique_ptr<Recording> recording_;
  Tracer tracer_;  ///< never given a sink: shard-shared, so reads only

  AnnouncementLog announce_log_;
  /// One forwarding rng per shard, touched only by that shard's worker
  /// (the origin hop runs on the origin process's shard thread).
  std::vector<Rng> shard_forward_rngs_;
  std::atomic<uint64_t> tree_hops_{0};

  std::mutex outputs_mu_;
  std::vector<CommittedOutput> outputs_;
  std::set<MsgId> committed_ids_;

  std::atomic<SeqNo> env_seq_{0};
  std::atomic<uint64_t> committed_count_{0};  ///< health probe feed
  /// Health cells; set once in the ctor when opt_.health != nullptr, read
  /// by shard threads thereafter.
  HealthCounter* h_fanout_ = nullptr;
  HealthCounter* h_tree_hops_ = nullptr;
  HealthCounter* h_track_bytes_ = nullptr;
  HealthCounter* h_track_nnz_ = nullptr;
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool stopped_ = false;
  SimTime final_now_ = 0;
  Stats merged_stats_;
};

}  // namespace koptlog
