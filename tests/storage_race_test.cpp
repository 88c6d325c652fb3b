// Regression coverage for the staging-thread / flusher-thread race in the
// disk backend's threaded_io mode.
//
// fire_window runs on the owning shard's event loop and used to publish the
// batch's message-position bound (seg_max_msg_pos_ / next_start_lsn_) with a
// plain unlocked write *after* handing the batch to the flusher, while the
// flusher reads those fields inside write_wal_now (under io_mu_) to stamp
// segment-roll metadata. TSan flagged the pair; a roll landing in the window
// could also stamp the new segment with a stale start position. The fix
// publishes the bound via note_batch_max_pos (under io_mu_) before the batch
// is enqueued.
//
// This test makes that interleaving hot: tiny segments force the flusher to
// roll constantly while small group-commit windows keep the shard threads
// staging concurrent batches. It lives in the threaded suite so
// scripts/sanitize_tests.sh runs it under ThreadSanitizer (ctest -L
// threaded), where the old code fails deterministically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>

#include "app/workloads.h"
#include "core/failure_injector.h"
#include "exec/threaded_cluster.h"
#include "obs/audit.h"
#include "obs/health/health.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "storage/disk/disk_backend.h"

namespace koptlog {
namespace {

constexpr double kFastScale = 0.02;

TEST(StorageRaceTest, ThreadedIoSegmentRollsUnderConcurrentStaging) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("koptlog_storage_race_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  HealthRegistry health;
  ClusterConfig cfg;
  cfg.n = 4;
  cfg.seed = 73;
  cfg.protocol.k = 2;
  cfg.record_events = true;
  cfg.protocol.storage_backend.backend = "disk";
  cfg.protocol.storage_backend.dir = dir.string();
  cfg.protocol.storage_backend.threaded_io = true;
  // Tiny segments + short windows: every few staged batches the flusher
  // rolls a segment (reading the shared position bound) while the shard
  // threads keep publishing new bounds — the exact racing pair.
  cfg.protocol.storage_backend.segment_bytes = 2048;
  cfg.protocol.storage_backend.group_commit_us = 200;
  cfg.protocol.storage_backend.health = &health;
  ThreadedOptions opt;
  opt.shards = 2;
  opt.time_scale = kFastScale;
  opt.health = &health;
  ThreadedCluster cluster(cfg, opt, make_uniform_app({}));
  cluster.start();
  const SimTime load_end = 400'000;
  inject_uniform_load(cluster, 120, 1'000, load_end, /*ttl=*/6, 74);
  apply_failure_plan(cluster, FailurePlan::random(Rng(73).fork("fail"), cfg.n,
                                                  1, load_end / 10, load_end));
  cluster.run_for(load_end);
  cluster.drain();
  cluster.shutdown();

  // The scenario really exercised the path: segments rolled on the flusher
  // while shards staged, and the run still audits clean (a stale roll
  // position would surface as lost/duplicated stable records on recovery).
  uint64_t rolls = 0, bytes = 0;
  HealthSample s = health.sample(0);
  for (const auto& dom : s.domains) {
    if (dom.name.rfind("storage", 0) != 0) continue;
    for (const auto& [name, v] : dom.counters) {
      if (name == "wal.segment_rolls") rolls += v;
      if (name == "wal.bytes_written") bytes += v;
    }
  }
  EXPECT_GT(rolls, 0u) << "segments never rolled — shrink segment_bytes";
  EXPECT_GT(bytes, 0u);
  EXPECT_GT(cluster.stats().counter("storage.fsyncs"), 0);

  Trace trace;
  trace.n = cfg.n;
  trace.events = cluster.recording()->merged();
  AuditReport rep = audit_trace(trace);
  std::string violations;
  for (const auto& v : rep.violations) violations += v + "\n";
  EXPECT_TRUE(rep.ok()) << violations;
  fs::remove_all(dir);
}

// The flusher's own I/O counts (bytes written, fsyncs, segment rolls) once
// went straight into the process's Stats bag from the flusher thread. That
// bag is confined to the owning shard, which keeps adding to it meanwhile:
// a data race on the map. Here the test thread plays the shard, driving one
// backend by hand and inserting into the bag while each batch is on the
// flusher; TSan flagged the old code on the first window. The threaded
// totals must also equal the inline ones for the same operations.
class ManualScheduler final : public Scheduler {
 public:
  SimTime now() const override { return 0; }
  SeqNo schedule_at(SimTime, Action fn) override {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(fn));
    cv_.notify_all();
    return seq_++;
  }
  /// Run the next queued action on the calling thread, waiting for one if
  /// none is queued yet (the flusher posts completions).
  void run_one() {
    Action fn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return !queue_.empty(); });
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Action> queue_;
  SeqNo seq_ = 0;
};

Stats drive_disk_backend(const std::filesystem::path& dir, bool threaded_io) {
  constexpr int kN = 2;
  StorageOptions opts;
  opts.backend = "disk";
  opts.dir = dir.string();
  opts.threaded_io = threaded_io;
  opts.segment_bytes = 256;  // roll on the flusher every few batches
  ManualScheduler sched;
  Stats stats;
  std::unique_ptr<StorageBackend> backend =
      make_disk_backend(opts, 0, kN, sched, &stats);
  size_t pos = 0;
  size_t durable = 0;
  for (int window = 0; window < 16; ++window) {
    for (int i = 0; i < 4; ++i, ++pos) {
      LogRecord rec;
      rec.msg.id = MsgId{1, static_cast<SeqNo>(pos)};
      rec.msg.from = 1;
      rec.msg.tdv = DepVector(kN);
      rec.msg.born_of = IntervalId{1, 0, static_cast<Sii>(pos)};
      rec.started = IntervalId{0, 0, static_cast<Sii>(pos + 1)};
      backend->on_append(pos, rec);
    }
    backend->request_flush(pos, 0, [&](size_t upto) { durable = upto; });
    sched.run_one();  // the group-commit window fires
    // The shard goes on counting while the batch is (maybe) on the flusher.
    stats.inc("shard.window." + std::to_string(window));
    while (durable != pos) sched.run_one();
  }
  backend->quiesce();
  return stats;
}

TEST(StorageRaceTest, FlusherIoCountsStayOffTheShardStatsBag) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("koptlog_flusher_stats_" + std::to_string(::getpid()));
  Stats inline_io = drive_disk_backend(dir / "inline", false);
  Stats flusher_io = drive_disk_backend(dir / "threaded", true);
  for (const char* key :
       {"storage.bytes_written", "storage.fsyncs", "storage.segments_rolled"}) {
    EXPECT_GT(inline_io.counter(key), 0) << key;
    EXPECT_EQ(flusher_io.counter(key), inline_io.counter(key)) << key;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace koptlog
