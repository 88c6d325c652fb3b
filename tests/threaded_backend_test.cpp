// Threaded execution backend: ThreadedScheduler unit tests plus whole-run
// ThreadedCluster scenarios validated by the oracle-free trace audit.
// These run in their own executable (ctest label "threaded") so the
// sanitize script can put exactly this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "app/workloads.h"
#include "core/cluster.h"
#include "core/failure_injector.h"
#include "exec/threaded_cluster.h"
#include "exec/threaded_scheduler.h"
#include "obs/audit.h"
#include "obs/trace_io.h"

namespace koptlog {
namespace {

// Virtual time compressed 50x against real time: a 400ms virtual load
// window takes 8ms of wall clock, and drain's parked periodic timers
// (up to the 100ms checkpoint interval) evaporate in ~2ms.
constexpr double kFastScale = 0.02;

void wait_executed(ThreadedScheduler& s, uint64_t n) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (s.executed() < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "worker stalled at " << s.executed() << "/" << n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- MonotonicClock --------------------------------------------------------

TEST(MonotonicClockTest, AdvancesMonotonically) {
  MonotonicClock clock(kFastScale);
  SimTime a = clock.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  SimTime b = clock.now();
  EXPECT_GE(b, a);
  // 2ms real at 0.02 real-us-per-virtual-us is 100ms virtual; allow a very
  // generous lower bound for scheduling noise.
  EXPECT_GE(b - a, 10'000);
}

TEST(MonotonicClockTest, RealDeadlineInvertsNow) {
  MonotonicClock clock(1.0);
  // The real point for virtual time t, read back through the clock's own
  // origin, is t again (up to integer truncation).
  auto rd = clock.real_deadline(5'000);
  MonotonicClock other(1.0);
  (void)other;
  EXPECT_GT(rd.time_since_epoch().count(), 0);
  clock.sleep_until(clock.now() + 1'000);
  EXPECT_GE(clock.now(), 1'000);
}

// --- ThreadedScheduler -----------------------------------------------------

TEST(ThreadedSchedulerTest, ExecutesInDeadlineOrder) {
  MonotonicClock clock(kFastScale);
  ThreadedScheduler sched(clock, "t");
  std::vector<int> order;
  sched.schedule_at(30'000, [&order] { order.push_back(3); });
  sched.schedule_at(10'000, [&order] { order.push_back(1); });
  sched.schedule_at(20'000, [&order] { order.push_back(2); });
  sched.start();
  wait_executed(sched, 3);
  sched.stop_and_join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadedSchedulerTest, SameDeadlineRunsInScheduleOrder) {
  MonotonicClock clock(kFastScale);
  ThreadedScheduler sched(clock, "t");
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    sched.schedule_at(1'000, [&order, i] { order.push_back(i); });
  }
  sched.start();
  wait_executed(sched, 50);
  sched.stop_and_join();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadedSchedulerTest, PastDeadlinesRunImmediately) {
  MonotonicClock clock(kFastScale);
  ThreadedScheduler sched(clock, "t");
  sched.start();
  clock.sleep_until(clock.now() + 5'000);
  std::atomic<bool> ran{false};
  sched.schedule_at(0, [&ran] { ran.store(true); });  // long past
  wait_executed(sched, 1);
  EXPECT_TRUE(ran.load());
  sched.stop_and_join();
}

TEST(ThreadedSchedulerTest, TasksScheduleAcrossWorkers) {
  MonotonicClock clock(kFastScale);
  ThreadedScheduler a(clock, "a");
  ThreadedScheduler b(clock, "b");
  a.start();
  b.start();
  // Ping-pong a token between the two workers; each hop re-schedules onto
  // the other shard, exercising the cross-thread mailbox path.
  std::atomic<int> hops{0};
  std::function<void()> hop = [&] {
    int h = hops.fetch_add(1) + 1;
    if (h >= 10) return;
    ThreadedScheduler& next = (h % 2 == 0) ? a : b;
    next.schedule_at(clock.now() + 100, hop);
  };
  a.schedule_at(clock.now(), hop);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (hops.load() < 10) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  a.stop_and_join();
  b.stop_and_join();
  EXPECT_EQ(hops.load(), 10);
}

TEST(ThreadedSchedulerTest, ScheduleBatchRunsInSubmitOrder) {
  MonotonicClock clock(kFastScale);
  ThreadedScheduler sched(clock, "t");
  std::vector<int> order;
  std::vector<Scheduler::TimedAction> batch;
  for (int i = 0; i < 32; ++i) {
    batch.push_back({1'000, [&order, i] { order.push_back(i); }});
  }
  sched.schedule_batch(std::move(batch));
  sched.start();
  wait_executed(sched, 32);
  sched.stop_and_join();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  // One splice carried the whole chain into the inbox.
  EXPECT_GE(sched.mailbox_counters().batch_items.load(), 32u);
}

TEST(ThreadedSchedulerTest, ScheduleBatchRespectsDeadlinesAcrossItems) {
  MonotonicClock clock(kFastScale);
  ThreadedScheduler sched(clock, "t");
  std::vector<int> order;
  std::vector<Scheduler::TimedAction> batch;
  batch.push_back({30'000, [&order] { order.push_back(3); }});
  batch.push_back({10'000, [&order] { order.push_back(1); }});
  batch.push_back({20'000, [&order] { order.push_back(2); }});
  sched.schedule_batch(std::move(batch));
  sched.start();
  wait_executed(sched, 3);
  sched.stop_and_join();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadedSchedulerTest, BoundedInboxStallsProducersWithoutLoss) {
  MonotonicClock clock(kFastScale);
  ThreadedScheduler sched(clock, "t", /*capacity=*/16);
  sched.start();
  std::atomic<int> ran{0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&sched, &ran] {
      for (int i = 0; i < kPerProducer; ++i) {
        sched.schedule_at(0, [&ran] { ran.fetch_add(1); });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  wait_executed(sched, kProducers * kPerProducer);
  sched.stop_and_join();
  // Every submitted event ran exactly once — backpressure throttles, it
  // never sheds.
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
  const MailboxCounters& mc = sched.mailbox_counters();
  EXPECT_EQ(mc.pushes.load(),
            static_cast<uint64_t>(kProducers) * kPerProducer);
  // Four threads racing a 16-slot inbox on this machine must have hit the
  // bound at least once, and only external producers stall (no worker
  // submits here, so no soft overflows).
  EXPECT_GT(mc.producer_stalls.load(), 0u);
  EXPECT_EQ(mc.soft_overflows.load(), 0u);
}

TEST(ThreadedSchedulerTest, StopDropsQueuedWorkAndReleasesStalledProducer) {
  MonotonicClock clock(1.0);
  ThreadedScheduler sched(clock, "t", /*capacity=*/1);
  sched.start();
  // One event an hour out fills the one-slot shard. Its capture holds a
  // reference that only the scheduler can release.
  auto token = std::make_shared<int>(0);
  std::atomic<bool> far_ran{false};
  sched.schedule_at(clock.now() + 3'600'000'000,
                    [token, &far_ran] { far_ran = true; });
  const MailboxCounters& mc = sched.mailbox_counters();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (mc.drains.load() == 0) {  // the worker holds it in its local queue
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // An external producer blocks on the full shard.
  std::atomic<bool> producer_returned{false};
  std::thread producer([&] {
    sched.schedule_at(0, [] {});
    producer_returned = true;
  });
  while (mc.producer_stalls.load() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto t0 = std::chrono::steady_clock::now();
  sched.stop_and_join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_FALSE(far_ran.load());
  EXPECT_EQ(token.use_count(), 1);
  while (!producer_returned.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A producer still blocked here would hang the join below; failing the
  // assertion instead ends the test (and the process) at once.
  ASSERT_TRUE(producer_returned.load());
  producer.join();
}

TEST(ThreadedSchedulerTest, IdleAndExecutedDetectQuiescence) {
  MonotonicClock clock(kFastScale);
  ThreadedScheduler sched(clock, "t");
  sched.start();
  for (int i = 0; i < 20; ++i) {
    sched.schedule_at(clock.now() + i * 100, [] {});
  }
  wait_executed(sched, 20);
  // Quiet: idle twice with no executions in between.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    uint64_t before = sched.executed();
    if (sched.idle() && sched.executed() == before && sched.idle()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sched.pending(), 0u);
  sched.stop_and_join();
}

// --- ThreadedCluster whole-run scenarios -----------------------------------

struct RunResult {
  AuditReport audit;
  int64_t crashes = 0;
  int64_t restarts = 0;
  int64_t rollbacks = 0;
  int64_t injected = 0;
  int64_t mailbox_stalls = 0;
  int64_t catchup_replayed = 0;
  int64_t tree_hops = 0;
  size_t outputs = 0;
};

std::string violations_of(const AuditReport& rep) {
  std::string out;
  for (const auto& v : rep.violations) out += v + "\n";
  return out;
}

RunResult run_threaded_uniform(int n, int shards, uint64_t seed, int k,
                               int failures, int injections,
                               size_t mailbox_capacity = 0,
                               int announce_fanout = 0) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.protocol.k = k;
  cfg.record_events = true;
  ThreadedOptions opt;
  opt.shards = shards;
  opt.time_scale = kFastScale;
  opt.mailbox_capacity = mailbox_capacity;
  opt.announce_fanout = announce_fanout;
  ThreadedCluster cluster(cfg, opt, make_uniform_app({}));
  cluster.start();
  const SimTime load_end = 400'000;
  inject_uniform_load(cluster, injections, 1'000, load_end, /*ttl=*/6,
                      seed + 1);
  if (failures > 0) {
    apply_failure_plan(cluster,
                       FailurePlan::random(Rng(seed).fork("fail"), n, failures,
                                           load_end / 10, load_end));
  }
  cluster.run_for(load_end);
  cluster.drain();
  cluster.shutdown();
  Trace trace;
  trace.n = cfg.n;
  trace.events = cluster.recording()->merged();
  RunResult r;
  r.audit = audit_trace(trace);
  r.crashes = cluster.stats().counter("crash.count");
  r.restarts = cluster.stats().counter("restart.count");
  r.rollbacks = cluster.stats().counter("rollback.count");
  r.injected = cluster.stats().counter("env.injected");
  r.mailbox_stalls = cluster.stats().counter("mailbox.producer_stalls");
  r.catchup_replayed = cluster.stats().counter("announce.catchup_replayed");
  r.tree_hops = cluster.stats().counter("announce.tree_hops");
  r.outputs = cluster.outputs().size();
  return r;
}

TEST(ThreadedClusterTest, CleanRunAuditsOkOnOneShard) {
  RunResult r = run_threaded_uniform(4, /*shards=*/1, /*seed=*/21, /*k=*/2,
                                     /*failures=*/0, /*injections=*/40);
  EXPECT_TRUE(r.audit.ok()) << violations_of(r.audit);
  EXPECT_GT(r.audit.events, 0u);
  EXPECT_GT(r.outputs, 0u);
  EXPECT_EQ(r.crashes, 0);
}

TEST(ThreadedClusterTest, CleanRunAuditsOkOnThreeShards) {
  RunResult r = run_threaded_uniform(6, /*shards=*/3, /*seed=*/22, /*k=*/2,
                                     /*failures=*/0, /*injections=*/60);
  EXPECT_TRUE(r.audit.ok()) << violations_of(r.audit);
  EXPECT_GT(r.outputs, 0u);
}

// The acceptance gate: randomized multi-failure runs audit with zero
// violations on at least two shard configurations (run under TSan via
// scripts/sanitize_tests.sh tsan).
TEST(ThreadedClusterTest, MultiFailureRunAuditsOkTwoShards) {
  RunResult r = run_threaded_uniform(4, /*shards=*/2, /*seed=*/31, /*k=*/1,
                                     /*failures=*/3, /*injections=*/60);
  EXPECT_TRUE(r.audit.ok()) << violations_of(r.audit);
  EXPECT_GE(r.crashes, 1);
  EXPECT_EQ(r.crashes, r.restarts);
  EXPECT_GT(r.audit.announcements, 0u);
}

TEST(ThreadedClusterTest, MultiFailureRunAuditsOkFourShards) {
  RunResult r = run_threaded_uniform(8, /*shards=*/4, /*seed=*/32, /*k=*/1,
                                     /*failures=*/3, /*injections=*/80);
  EXPECT_TRUE(r.audit.ok()) << violations_of(r.audit);
  EXPECT_GE(r.crashes, 1);
  EXPECT_EQ(r.crashes, r.restarts);
}

TEST(ThreadedClusterTest, UnboundedKMultiFailureAuditsOk) {
  RunResult r = run_threaded_uniform(6, /*shards=*/3, /*seed=*/33,
                                     ProtocolConfig::kUnboundedK,
                                     /*failures=*/2, /*injections=*/60);
  EXPECT_TRUE(r.audit.ok()) << violations_of(r.audit);
}

// Bounded-inbox flood: 200 injections against 8-slot shard inboxes. The
// driver thread must throttle (stall counter moves through Stats), yet
// every injected message survives and the trace audits clean.
TEST(ThreadedClusterTest, BoundedMailboxFloodThrottlesWithoutLoss) {
  RunResult r = run_threaded_uniform(4, /*shards=*/2, /*seed=*/41, /*k=*/2,
                                     /*failures=*/0, /*injections=*/200,
                                     /*mailbox_capacity=*/8);
  EXPECT_TRUE(r.audit.ok()) << violations_of(r.audit);
  EXPECT_EQ(r.injected, 200);
  EXPECT_GT(r.mailbox_stalls, 0);
  EXPECT_GT(r.outputs, 0u);
  EXPECT_EQ(r.crashes, 0);
}

// 8-shard randomized multi-failure stress: the widest shard fan the
// blockwise split supports at n=16, five random crash/restart cycles per
// seed, audited per run. Runs under TSan via scripts/sanitize_tests.sh.
TEST(ThreadedClusterTest, EightShardRandomizedMultiFailureStress) {
  for (uint64_t seed : {uint64_t{51}, uint64_t{52}}) {
    RunResult r = run_threaded_uniform(16, /*shards=*/8, seed, /*k=*/2,
                                       /*failures=*/5, /*injections=*/200);
    EXPECT_TRUE(r.audit.ok())
        << "seed " << seed << "\n"
        << violations_of(r.audit);
    EXPECT_GE(r.crashes, 1);
    EXPECT_EQ(r.crashes, r.restarts);
    EXPECT_GE(r.catchup_replayed, 0);
  }
}

// --- tree-based announcement dissemination ---------------------------------
//
// With --announce-fanout D >= 1 the origin shard hands announcements to a
// D-ary tree over the shards instead of messaging every shard directly.
// Each non-origin shard still receives every announcement exactly once, so
// total hops per broadcast are S-1 — same delivery, origin cost O(D).

TEST(ThreadedClusterTest, TreeDisseminationCleanRunAuditsOk) {
  RunResult r = run_threaded_uniform(8, /*shards=*/4, /*seed=*/61, /*k=*/2,
                                     /*failures=*/0, /*injections=*/80,
                                     /*mailbox_capacity=*/0,
                                     /*announce_fanout=*/2);
  EXPECT_TRUE(r.audit.ok()) << violations_of(r.audit);
  EXPECT_GT(r.outputs, 0u);
  // No failures -> no announcements -> nothing for the tree to forward.
  EXPECT_EQ(r.tree_hops, 0);
}

TEST(ThreadedClusterTest, TreeDisseminationChainFanoutAuditsOk) {
  // D=1 degenerates to a relay chain across the shards — the deepest tree,
  // the harshest ordering test for multi-hop delivery.
  RunResult r = run_threaded_uniform(8, /*shards=*/4, /*seed=*/62, /*k=*/1,
                                     /*failures=*/2, /*injections=*/80,
                                     /*mailbox_capacity=*/0,
                                     /*announce_fanout=*/1);
  EXPECT_TRUE(r.audit.ok()) << violations_of(r.audit);
  EXPECT_GE(r.crashes, 1);
  EXPECT_EQ(r.crashes, r.restarts);
  EXPECT_GT(r.tree_hops, 0);
}

// The acceptance gate for the tree path: randomized multi-failure runs on
// the widest shard fan, with restarts forcing announcement catch-up while
// later announcements are still traversing tree hops. Runs under TSan via
// scripts/sanitize_tests.sh tsan.
TEST(ThreadedClusterTest, TreeDisseminationMultiFailureRestartCatchUp) {
  for (uint64_t seed : {uint64_t{71}, uint64_t{72}}) {
    RunResult r = run_threaded_uniform(16, /*shards=*/8, seed, /*k=*/2,
                                       /*failures=*/5, /*injections=*/200,
                                       /*mailbox_capacity=*/0,
                                       /*announce_fanout=*/2);
    EXPECT_TRUE(r.audit.ok())
        << "seed " << seed << "\n"
        << violations_of(r.audit);
    EXPECT_GE(r.crashes, 1);
    EXPECT_EQ(r.crashes, r.restarts);
    EXPECT_GT(r.tree_hops, 0);
    EXPECT_GT(r.audit.announcements, 0u);
  }
}

TEST(ThreadedClusterTest, ShardPartitionIsBlockwise) {
  ClusterConfig cfg;
  cfg.n = 6;
  ThreadedOptions opt;
  opt.shards = 2;
  opt.time_scale = kFastScale;
  ThreadedCluster cluster(cfg, opt, make_uniform_app({}));
  EXPECT_EQ(cluster.shards(), 2);
  EXPECT_EQ(cluster.shard_of_pid(0), 0);
  EXPECT_EQ(cluster.shard_of_pid(2), 0);
  EXPECT_EQ(cluster.shard_of_pid(3), 1);
  EXPECT_EQ(cluster.shard_of_pid(5), 1);
}

TEST(ThreadedClusterTest, StatsRequireShutdownThenMerge) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.record_events = true;
  ThreadedOptions opt;
  opt.shards = 2;
  opt.time_scale = kFastScale;
  ThreadedCluster cluster(cfg, opt, make_uniform_app({}));
  cluster.start();
  inject_uniform_load(cluster, 20, 1'000, 100'000, 5, 9);
  cluster.run_for(100'000);
  cluster.drain();
  cluster.shutdown();
  // Per-process bags merged: the cluster-wide delivery count is visible.
  EXPECT_GT(cluster.stats().counter("msgs.delivered"), 0);
  EXPECT_GT(cluster.stats().counter("env.injected"), 0);
}

// --- Cross-shard recovery: both backends, same scenario, same verdict ------
//
// Pipeline workload (P0 -> P1 -> ... -> Pn-1), K=1, one failure at P0.
// With K=1 P0's sends may depend on one unlogged interval, so its crash
// orphans downstream state: processes on the *other* shard (P2, P3 under
// the blockwise 2-shard split) roll back and revoke held messages. Both
// backends must come out of it with a clean audit. The flush interval is
// stretched to 50ms so a crash reliably lands inside the vulnerable
// window between flushes.

ClusterConfig pipeline_crash_config(uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.seed = seed;
  cfg.protocol.k = 1;
  cfg.protocol.flush_interval_us = 50'000;
  cfg.record_events = true;
  return cfg;
}

AuditReport run_sim_pipeline_crash(uint64_t seed, int64_t* rollbacks,
                                   size_t* holds) {
  ClusterConfig cfg = pipeline_crash_config(seed);
  cfg.enable_oracle = false;
  Cluster cluster(cfg, make_pipeline_app({}));
  cluster.start();
  inject_pipeline_load(cluster, 40, 1'000, 300'000);
  cluster.fail_at(120'000, 0);
  cluster.run_for(900'000);
  cluster.drain();
  if (rollbacks) *rollbacks = cluster.stats().counter("rollback.count");
  Trace trace;
  trace.n = cfg.n;
  trace.events = cluster.recording()->merged();
  if (holds) {
    *holds = 0;
    for (const ProtocolEvent& e : trace.events) {
      if (e.kind == EventKind::kBufferHold) ++*holds;
    }
  }
  return audit_trace(trace);
}

AuditReport run_threaded_pipeline_crash(uint64_t seed, int64_t* crashes) {
  ClusterConfig cfg = pipeline_crash_config(seed);
  ThreadedOptions opt;
  opt.shards = 2;
  opt.time_scale = kFastScale;
  ThreadedCluster cluster(cfg, opt, make_pipeline_app({}));
  // P0 (the failing stage) is on shard 0; the tail stages are on shard 1.
  EXPECT_EQ(cluster.shard_of_pid(0), 0);
  EXPECT_EQ(cluster.shard_of_pid(3), 1);
  cluster.start();
  inject_pipeline_load(cluster, 40, 1'000, 300'000);
  cluster.fail_at(120'000, 0);
  cluster.run_for(450'000);
  cluster.drain();
  cluster.shutdown();
  if (crashes) *crashes = cluster.stats().counter("crash.count");
  Trace trace;
  trace.n = cfg.n;
  trace.events = cluster.recording()->merged();
  return audit_trace(trace);
}

TEST(CrossShardRecoveryTest, BothBackendsAuditIdenticallyClean) {
  int64_t sim_rollbacks = 0;
  size_t sim_holds = 0;
  AuditReport sim_rep = run_sim_pipeline_crash(11, &sim_rollbacks, &sim_holds);
  EXPECT_TRUE(sim_rep.ok()) << violations_of(sim_rep);
  // The deterministic run pins the scenario's substance: the crash caused
  // downstream rollbacks and the K bound held messages back at some point.
  EXPECT_GE(sim_rollbacks, 1);
  EXPECT_GE(sim_holds, 1u);
  EXPECT_GT(sim_rep.announcements, 0u);

  int64_t thr_crashes = 0;
  AuditReport thr_rep = run_threaded_pipeline_crash(11, &thr_crashes);
  EXPECT_TRUE(thr_rep.ok()) << violations_of(thr_rep);
  EXPECT_EQ(thr_crashes, 1);
  EXPECT_GT(thr_rep.announcements, 0u);

  // Identical verdicts: the nondeterministic backend earns the same clean
  // bill of health the deterministic one does.
  EXPECT_EQ(sim_rep.ok(), thr_rep.ok());
}

// --- durable storage under the threaded backend -----------------------------

// --storage=disk with threaded_io: file writes and fsyncs run on per-process
// flusher threads, completions ride the thread-safe schedule_at back onto
// the owning shard, and shutdown() quiesces the flushers before stopping
// the shard event loops. Runs under TSan via scripts/sanitize_tests.sh.
TEST(ThreadedClusterTest, DiskBackendMultiFailureRunAuditsOk) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "koptlog_threaded_disk_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ClusterConfig cfg;
  cfg.n = 4;
  cfg.seed = 41;
  cfg.protocol.k = 1;
  cfg.record_events = true;
  cfg.protocol.storage_backend.backend = "disk";
  cfg.protocol.storage_backend.dir = dir.string();
  cfg.protocol.storage_backend.threaded_io = true;
  ThreadedOptions opt;
  opt.shards = 2;
  opt.time_scale = kFastScale;
  ThreadedCluster cluster(cfg, opt, make_uniform_app({}));
  cluster.start();
  const SimTime load_end = 400'000;
  inject_uniform_load(cluster, 60, 1'000, load_end, /*ttl=*/6, 42);
  apply_failure_plan(cluster, FailurePlan::random(Rng(41).fork("fail"), cfg.n,
                                                  2, load_end / 10, load_end));
  cluster.run_for(load_end);
  cluster.drain();
  cluster.shutdown();

  Trace trace;
  trace.n = cfg.n;
  trace.events = cluster.recording()->merged();
  AuditReport rep = audit_trace(trace);
  EXPECT_TRUE(rep.ok()) << violations_of(rep);
  EXPECT_GT(rep.events, 0u);
  EXPECT_GT(cluster.outputs().size(), 0u);
  // The durable backend really ran: fsyncs happened and flush completions
  // carried durable LSNs into the trace.
  EXPECT_GT(cluster.stats().counter("storage.fsyncs"), 0);
  size_t flush_events = 0;
  for (const ProtocolEvent& e : trace.events)
    flush_events += (e.kind == EventKind::kStorageFlush);
  EXPECT_GT(flush_events, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace koptlog
