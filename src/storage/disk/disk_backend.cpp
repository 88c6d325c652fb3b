// DiskBackend — the durable storage backend: a segmented append-only WAL
// for message records (group-committed: one fsync per group_commit_us
// window), a synchronously-fsynced journal for announcements, incarnation
// bumps and parked messages, and one fsynced file per checkpoint.
//
// Volatility contract: an appended message record stays in an in-memory
// staging buffer until a flush covers it — what is on disk is exactly what
// has been fsynced, so a simulated crash (which clears the staging buffer)
// loses precisely the records the logical MessageLog loses. All
// non-message records (truncate, discard, journal, checkpoints) are
// written and fsynced synchronously: they correspond to the protocol's
// synchronous stable-storage writes.
//
// Threading: with opts.threaded_io the group-commit batch write + fsync
// runs on a dedicated flusher thread (keeping I/O off the shard event
// loop) and the completion is posted back through the scheduler;
// synchronous operations drain the flusher first so file order is
// preserved. Without it, everything runs inline on the caller
// (deterministic under the simulator: real I/O consumes no virtual time).
#include "storage/disk/disk_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/health/health.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "storage/disk/format.h"
#include "storage/disk/recovery.h"
#include "wire/codec.h"

namespace koptlog {

namespace fs = std::filesystem;
using disk::RecordType;

namespace {

std::string segment_name(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%06llu.seg",
                static_cast<unsigned long long>(index));
  return buf;
}

std::string checkpoint_name(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%06llu.ckpt",
                static_cast<unsigned long long>(id));
  return buf;
}

class DiskBackend final : public StorageBackend {
 public:
  DiskBackend(const StorageOptions& opts, ProcessId pid, int n,
              Scheduler& scheduler, Stats* stats)
      : opts_(opts),
        pid_(pid),
        n_(n),
        sched_(scheduler),
        stats_(stats),
        dir_((fs::path(opts.dir) / "p") += std::to_string(pid)) {
    KOPT_CHECK_MSG(!opts_.dir.empty(), "disk backend requires a storage dir");
    std::error_code ec;
    if (!opts_.recover) fs::remove_all(dir_, ec);
    fs::create_directories(dir_, ec);
    if (opts_.recover) {
      // Continue an existing directory: repair torn tails now and position
      // the writers past the surviving state. The image itself is rebuilt
      // (again) when the host calls recover() at restart.
      disk::AnalysisResult r = disk::analyze_process_dir(dir_.string());
      disk::repair_process_dir(r);
      reopen_after_analysis(r);
    } else {
      open_fresh();
    }
    if (opts_.health != nullptr) {
      HealthDomain* dom =
          opts_.health->domain("storage" + std::to_string(pid_));
      h_fsync_ = dom->histogram("wal.fsync_us");
      h_window_ = dom->histogram("wal.window_fill");
      g_staged_ = dom->gauge("wal.staged_bytes");
      c_rolls_ = dom->counter("wal.segment_rolls");
      c_bytes_ = dom->counter("wal.bytes_written");
    }
    if (opts_.threaded_io) flusher_ = std::thread([this] { flusher_main(); });
  }

  ~DiskBackend() override {
    if (flusher_.joinable()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      flusher_.join();
    }
    close_files();
  }

  const char* name() const override { return "disk"; }
  bool durable() const override { return true; }

  // ---- mutation mirror ----

  void on_append(size_t pos, const LogRecord& rec) override {
    staged_.push_back(
        Staged{pos, disk::frame_record(RecordType::kMessage,
                                       disk::encode_message(pos, rec))});
    staged_bytes_ += staged_.back().bytes.size();
    if (g_staged_ != nullptr)
      g_staged_->set(static_cast<int64_t>(staged_bytes_));
  }

  void on_truncate(size_t pos) override {
    // Drop the staged (still-volatile) records the truncation just undid:
    // they must never reach the WAL. A later window writes after the
    // truncate record in file order, so a stale staged record past the
    // re-delivered suffix would replay as a ghost of the undone
    // incarnation — and a post-restart announcement derived from it would
    // let peers commit against a rolled-back interval.
    std::erase_if(staged_, [this, pos](const Staged& s) {
      if (s.pos < pos) return false;
      staged_bytes_ -= s.bytes.size();
      return true;
    });
    if (g_staged_ != nullptr)
      g_staged_->set(static_cast<int64_t>(staged_bytes_));
    drain_flusher();
    write_wal_now(
        disk::frame_record(RecordType::kTruncate, disk::encode_pos(pos)));
  }

  void on_discard_prefix(size_t pos) override {
    drain_flusher();
    write_wal_now(
        disk::frame_record(RecordType::kDiscardPrefix, disk::encode_pos(pos)));
    // Leading segments whose message records all sit below the discard
    // point can never matter to a future scan (re-appended positions live
    // in later segments, and historical truncate records only ever affect
    // records from their own segment or earlier). Reclaim them.
    std::lock_guard<std::mutex> lk(io_mu_);
    while (segments_.size() > 1 && segments_.front().max_msg_pos < pos) {
      std::error_code ec;
      fs::remove(dir_ / segment_name(segments_.front().index), ec);
      segments_.pop_front();
      if (stats_) stats_->inc("storage.segments_reclaimed");
    }
  }

  void on_checkpoint(const Checkpoint& cp) override {
    drain_flusher();
    fs::path path = dir_ / checkpoint_name(cp.id);
    int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    KOPT_CHECK_MSG(fd >= 0, "cannot create " << path.string());
    write_all(fd, disk::frame_record(RecordType::kFileHeader,
                                     disk::encode_file_header(header())));
    write_all(fd, disk::frame_record(RecordType::kCheckpoint,
                                     disk::encode_checkpoint(cp, n_)));
    do_fsync(fd);
    ::close(fd);
  }

  void on_discard_checkpoint(uint64_t id) override {
    std::error_code ec;
    fs::remove(dir_ / checkpoint_name(id), ec);
  }

  void on_announcement(const Announcement& a) override {
    write_journal_now(disk::frame_record(RecordType::kAnnouncement,
                                         wire::encode_announcement(a)));
  }

  void on_incarnation(Incarnation inc) override {
    write_journal_now(disk::frame_record(RecordType::kIncarnation,
                                         disk::encode_incarnation(inc)));
  }

  void on_park(const AppMsg& m) override {
    write_journal_now(
        disk::frame_record(RecordType::kPark, disk::encode_park(m)));
  }

  void on_unpark(const MsgId& id) override {
    write_journal_now(
        disk::frame_record(RecordType::kUnpark, disk::encode_unpark(id)));
  }

  // ---- flushing ----

  void request_flush(size_t upto, size_t nvol, FlushDone done) override {
    (void)nvol;
    pending_.push_back(Pending{upto, std::move(done)});
    if (window_armed_) return;
    window_armed_ = true;
    uint64_t gen = gen_;
    sched_.schedule_after(opts_.group_commit_us, [this, gen] {
      if (gen != gen_) return;  // a crash voided this window
      window_armed_ = false;
      fire_window();
    });
  }

  void sync_flush() override {
    drain_flusher();
    if (staged_.empty()) return;
    std::vector<uint8_t> batch;
    size_t max_pos = 0;
    for (Staged& s : staged_) {
      batch.insert(batch.end(), s.bytes.begin(), s.bytes.end());
      max_pos = std::max(max_pos, s.pos);
    }
    staged_.clear();
    staged_bytes_ = 0;
    if (g_staged_ != nullptr) g_staged_->set(0);
    note_batch_max_pos(max_pos);
    write_wal_now(std::move(batch));
    // Any pending window completes later against an already-durable log —
    // its fire finds nothing left to write and just reports the bound.
  }

  void on_crash() override {
    ++gen_;  // voids the armed window and any in-flight threaded completion
    window_armed_ = false;
    staged_.clear();
    staged_bytes_ = 0;
    if (g_staged_ != nullptr) g_staged_->set(0);
    pending_.clear();
  }

  bool recover(RecoveredImage& out) override {
    drain_flusher();
    close_files();
    disk::AnalysisResult r = disk::analyze_process_dir(dir_.string());
    KOPT_CHECK_MSG(!r.report.hard_error(),
                   "storage recovery failed for P" << pid_ << ": "
                                                   << r.report.errors.front());
    disk::repair_process_dir(r);
    reopen_after_analysis(r);
    staged_.clear();
    staged_bytes_ = 0;
    if (g_staged_ != nullptr) g_staged_->set(0);
    pending_.clear();
    if (stats_) stats_->inc("storage.recoveries");
    if (!r.found_any) return false;
    if (stats_) {
      stats_->inc("storage.recovered_records",
                  static_cast<int64_t>(r.image.records.size()));
      stats_->inc("storage.recovered_checkpoints",
                  static_cast<int64_t>(r.image.checkpoints.size()));
    }
    out = std::move(r.image);
    return true;
  }

  void quiesce() override {
    std::unique_lock<std::mutex> lk(mu_);
    drained_cv_.wait(lk, [this] { return jobs_.empty() && in_flight_ == 0; });
    posting_enabled_ = false;
  }

 private:
  struct Staged {
    size_t pos;
    std::vector<uint8_t> bytes;
  };
  struct Pending {
    size_t upto;
    FlushDone done;
  };
  struct Job {
    std::vector<uint8_t> bytes;
    std::vector<FlushDone> dones;
    size_t flush_upto = 0;
    SimTime handoff = 0;
  };
  struct SegmentRt {
    uint64_t index = 0;
    size_t max_msg_pos = 0;
  };

  disk::FileHeader header(uint64_t start_lsn = 0) const {
    disk::FileHeader h;
    h.pid = pid_;
    h.n = n_;
    h.start_lsn = start_lsn;
    return h;
  }

  // ---- group-commit window ----

  void fire_window() {
    if (pending_.empty()) return;
    size_t flush_upto = 0;
    std::vector<FlushDone> dones;
    dones.reserve(pending_.size());
    for (Pending& p : pending_) {
      flush_upto = std::max(flush_upto, p.upto);
      dones.push_back(std::move(p.done));
    }
    pending_.clear();

    // Only records a request covers are written; later appends stay staged
    // (volatile) until their own flush — disk content tracks the logical
    // stable prefix exactly.
    std::vector<uint8_t> batch;
    size_t kept = 0;
    size_t written = 0;
    size_t max_pos = 0;
    for (size_t i = 0; i < staged_.size(); ++i) {
      Staged& s = staged_[i];
      if (s.pos < flush_upto) {
        batch.insert(batch.end(), s.bytes.begin(), s.bytes.end());
        max_pos = std::max(max_pos, s.pos);
        ++written;
      } else {
        // Compact in place; guard the self-move (kept == i) or the record's
        // bytes are emptied and a later window writes a hole the analysis
        // scan truncates the recovered log at.
        if (kept != i) staged_[kept] = std::move(s);
        ++kept;
      }
    }
    staged_.resize(kept);
    staged_bytes_ -= batch.size();
    if (g_staged_ != nullptr)
      g_staged_->set(static_cast<int64_t>(staged_bytes_));
    if (stats_)
      stats_->sample("storage.flush_batch_records", static_cast<double>(written));
    if (h_window_ != nullptr) h_window_->observe(written);
    // Publish the batch's position bound BEFORE the write is issued or
    // handed to the flusher: under threaded_io the flusher reads
    // seg_max_msg_pos_/next_start_lsn_ inside write_wal_now (under io_mu_),
    // so the update must happen under the same lock here on the staging
    // thread — the old unlocked note_msg_pos raced the flusher's segment
    // roll.
    if (written > 0) note_batch_max_pos(max_pos);

    if (opts_.threaded_io) {
      Job job;
      job.bytes = std::move(batch);
      job.dones = std::move(dones);
      job.flush_upto = flush_upto;
      job.handoff = sched_.now();
      {
        std::lock_guard<std::mutex> lk(mu_);
        jobs_.push_back(std::move(job));
      }
      cv_.notify_one();
      return;
    }
    if (!batch.empty()) write_wal_now(std::move(batch));
    for (FlushDone& d : dones) d(flush_upto);
  }

  void flusher_main() {
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
        if (jobs_.empty()) return;  // stop_ and drained
        job = std::move(jobs_.front());
        jobs_.pop_front();
        ++in_flight_;
      }
      if (!job.bytes.empty()) write_wal_now(std::move(job.bytes));
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (posting_enabled_) {
          // Post the completion back onto the owning shard's event loop;
          // the deadline already passed, so it runs at the next turn.
          auto dones = std::make_shared<std::vector<FlushDone>>(
              std::move(job.dones));
          size_t upto = job.flush_upto;
          sched_.schedule_at(job.handoff, [dones, upto] {
            for (FlushDone& d : *dones) d(upto);
          });
        }
        --in_flight_;
      }
      drained_cv_.notify_all();
    }
  }

  void drain_flusher() {
    if (!opts_.threaded_io) return;
    std::unique_lock<std::mutex> lk(mu_);
    drained_cv_.wait(lk, [this] { return jobs_.empty() && in_flight_ == 0; });
  }

  // ---- file plumbing (io_mu_ serializes flusher vs. shard thread) ----

  void open_fresh() {
    std::lock_guard<std::mutex> lk(io_mu_);
    open_segment_locked(1, /*start_lsn=*/0);
    open_journal_locked(/*fresh=*/true);
  }

  void reopen_after_analysis(const disk::AnalysisResult& r) {
    std::lock_guard<std::mutex> lk(io_mu_);
    segments_.clear();
    for (const disk::SegmentReport& seg : r.report.segments) {
      if (seg.dropped || (seg.torn && seg.valid_bytes == 0)) continue;
      segments_.push_back(SegmentRt{seg.index, seg.has_msgs ? seg.max_msg_pos : 0});
    }
    // New writes go to a fresh segment past everything that survived.
    open_segment_locked(r.last_segment_index + 1,
                        r.image.base + r.image.records.size());
    open_journal_locked(/*fresh=*/r.report.journal_path.empty());
  }

  void open_segment_locked(uint64_t index, uint64_t start_lsn) {
    if (wal_fd_ >= 0) ::close(wal_fd_);
    fs::path path = dir_ / segment_name(index);
    wal_fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_APPEND, 0644);
    KOPT_CHECK_MSG(wal_fd_ >= 0, "cannot create " << path.string());
    seg_index_ = index;
    seg_written_ = 0;
    std::vector<uint8_t> hdr = disk::frame_record(
        RecordType::kFileHeader, disk::encode_file_header(header(start_lsn)));
    write_all(wal_fd_, hdr);
    do_fsync(wal_fd_);
    seg_written_ = hdr.size();
    segments_.push_back(SegmentRt{index, 0});
    next_start_lsn_ = start_lsn;
  }

  void open_journal_locked(bool fresh) {
    if (journal_fd_ >= 0) ::close(journal_fd_);
    fs::path path = dir_ / "journal.jrn";
    int flags = O_CREAT | O_WRONLY | O_APPEND | (fresh ? O_TRUNC : 0);
    journal_fd_ = ::open(path.c_str(), flags, 0644);
    KOPT_CHECK_MSG(journal_fd_ >= 0, "cannot open " << path.string());
    if (fresh) {
      write_all(journal_fd_,
                disk::frame_record(RecordType::kFileHeader,
                                   disk::encode_file_header(header())));
      do_fsync(journal_fd_);
    }
  }

  void close_files() {
    std::lock_guard<std::mutex> lk(io_mu_);
    if (wal_fd_ >= 0) ::close(wal_fd_);
    if (journal_fd_ >= 0) ::close(journal_fd_);
    wal_fd_ = -1;
    journal_fd_ = -1;
  }

  /// Append `bytes` to the WAL and fsync, rolling the segment first when
  /// it is over the size bound.
  void write_wal_now(std::vector<uint8_t> bytes) {
    std::lock_guard<std::mutex> lk(io_mu_);
    if (c_bytes_ != nullptr) c_bytes_->inc(bytes.size());
    if (seg_written_ >= opts_.segment_bytes) {
      segments_.back().max_msg_pos = seg_max_msg_pos_;
      do_fsync(wal_fd_);
      open_segment_locked(seg_index_ + 1, next_start_lsn_);
      if (stats_) stats_->inc("storage.segments_rolled");
      if (c_rolls_ != nullptr) c_rolls_->inc();
    }
    write_all(wal_fd_, bytes);
    seg_written_ += bytes.size();
    segments_.back().max_msg_pos =
        std::max(segments_.back().max_msg_pos, seg_max_msg_pos_);
    do_fsync(wal_fd_);
  }

  void write_journal_now(const std::vector<uint8_t>& bytes) {
    std::lock_guard<std::mutex> lk(io_mu_);
    write_all(journal_fd_, bytes);
    do_fsync(journal_fd_);
  }

  /// Track the highest message position headed for the current segment and
  /// the log bound new segments should stamp as their start_lsn. Callers on
  /// the staging thread must go through note_batch_max_pos: the flusher
  /// thread reads both fields under io_mu_ when it rolls a segment.
  void note_msg_pos_locked(size_t pos) {
    seg_max_msg_pos_ = std::max(seg_max_msg_pos_, pos);
    next_start_lsn_ = std::max(next_start_lsn_, static_cast<uint64_t>(pos + 1));
  }

  void note_batch_max_pos(size_t max_pos) {
    std::lock_guard<std::mutex> lk(io_mu_);
    note_msg_pos_locked(max_pos);
  }

  void write_all(int fd, const std::vector<uint8_t>& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
      KOPT_CHECK_MSG(w > 0, "storage write failed for P" << pid_);
      off += static_cast<size_t>(w);
    }
    if (stats_) stats_->inc("storage.bytes_written",
                            static_cast<int64_t>(bytes.size()));
  }

  void do_fsync(int fd) {
    if (h_fsync_ != nullptr) {
      auto t0 = std::chrono::steady_clock::now();
      KOPT_CHECK_MSG(::fsync(fd) == 0, "fsync failed for P" << pid_);
      auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      h_fsync_->observe(static_cast<uint64_t>(us));
    } else {
      KOPT_CHECK_MSG(::fsync(fd) == 0, "fsync failed for P" << pid_);
    }
    if (stats_) stats_->inc("storage.fsyncs");
  }

  const StorageOptions opts_;
  const ProcessId pid_;
  const int n_;
  Scheduler& sched_;
  Stats* stats_;
  const fs::path dir_;

  // Logical state (owned by the shard/caller thread).
  std::vector<Staged> staged_;
  size_t staged_bytes_ = 0;
  std::vector<Pending> pending_;
  bool window_armed_ = false;
  uint64_t gen_ = 0;

  // Health cells (obs/health); set once in the ctor, null when telemetry is
  // off. The histogram/gauge updates are lock-free and thread-safe.
  HealthHistogram* h_fsync_ = nullptr;
  HealthHistogram* h_window_ = nullptr;
  HealthGauge* g_staged_ = nullptr;
  HealthCounter* c_rolls_ = nullptr;
  HealthCounter* c_bytes_ = nullptr;

  // File state (io_mu_ serializes the flusher thread against sync ops).
  std::mutex io_mu_;
  int wal_fd_ = -1;
  int journal_fd_ = -1;
  uint64_t seg_index_ = 0;
  size_t seg_written_ = 0;
  size_t seg_max_msg_pos_ = 0;
  uint64_t next_start_lsn_ = 0;
  std::deque<SegmentRt> segments_;

  // Flusher thread (threaded_io only).
  std::thread flusher_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;
  std::deque<Job> jobs_;
  int in_flight_ = 0;
  bool stop_ = false;
  bool posting_enabled_ = true;
};

}  // namespace

std::unique_ptr<StorageBackend> make_disk_backend(const StorageOptions& opts,
                                                  ProcessId pid, int n,
                                                  Scheduler& scheduler,
                                                  Stats* stats) {
  return std::make_unique<DiskBackend>(opts, pid, n, scheduler, stats);
}

}  // namespace koptlog
