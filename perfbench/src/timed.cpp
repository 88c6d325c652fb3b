#include "timed.h"

#include <memory>
#include <utility>

#include "core/application.h"
#include "core/cluster_api.h"
#include "core/recovery_process.h"
#include "spans.h"

namespace perfbench {

using namespace koptlog;

namespace {

class TimedApp final : public Application {
 public:
  explicit TimedApp(std::unique_ptr<Application> inner)
      : inner_(std::move(inner)) {}

  void on_start(AppContext& ctx) override { inner_->on_start(ctx); }
  void on_deliver(AppContext& ctx, ProcessId from,
                  const AppPayload& payload) override {
    ScopedSpan s(SpanName::kDeliver);
    inner_->on_deliver(ctx, from, payload);
  }
  std::vector<uint8_t> snapshot() const override { return inner_->snapshot(); }
  void restore(std::span<const uint8_t> bytes) override {
    inner_->restore(bytes);
  }
  uint64_t state_hash() const override { return inner_->state_hash(); }

 private:
  std::unique_ptr<Application> inner_;
};

class TimedApi final : public ClusterApi {
 public:
  explicit TimedApi(ClusterApi& inner) : inner_(inner) {}

  Scheduler& scheduler() override { return inner_.scheduler(); }
  Stats& stats() override { return inner_.stats(); }
  const Tracer& tracer() const override { return inner_.tracer(); }
  void route_app_msg(AppMsg msg) override {
    ScopedSpan s(SpanName::kRoute);
    inner_.route_app_msg(std::move(msg));
  }
  void broadcast_announcement(const Announcement& a) override {
    ScopedSpan s(SpanName::kBroadcastAnnouncement);
    inner_.broadcast_announcement(a);
  }
  void broadcast_log_progress(const LogProgressMsg& lp) override {
    ScopedSpan s(SpanName::kBroadcastProgress);
    inner_.broadcast_log_progress(lp);
  }
  void send_ack(ProcessId acker, ProcessId sender, MsgId id) override {
    inner_.send_ack(acker, sender, id);
  }
  void send_dep_query(const DepQuery& q) override { inner_.send_dep_query(q); }
  void send_dep_reply(ProcessId to, const DepReply& r) override {
    inner_.send_dep_reply(to, r);
  }
  void commit_output(const OutputRecord& rec) override {
    ScopedSpan s(SpanName::kCommitOutput);
    inner_.commit_output(rec);
  }
  Oracle* oracle() override { return inner_.oracle(); }
  EventRecorder* recorder(ProcessId pid) override {
    return inner_.recorder(pid);
  }
  bool draining() const override { return inner_.draining(); }

 private:
  ClusterApi& inner_;
};

class TimedEngine final : public RecoveryProcess {
 public:
  TimedEngine(std::unique_ptr<TimedApi> api,
              std::unique_ptr<RecoveryProcess> inner)
      : api_(std::move(api)), inner_(std::move(inner)) {}

  void start_process() override {
    ScopedSpan s(SpanName::kStartProcess);
    inner_->start_process();
  }
  void handle_app_msg(const AppMsg& m) override {
    ScopedSpan s(SpanName::kAppMsg);
    inner_->handle_app_msg(m);
  }
  void handle_announcement(const Announcement& a) override {
    ScopedSpan s(SpanName::kAnnouncement);
    inner_->handle_announcement(a);
  }
  void handle_log_progress(const LogProgressMsg& lp) override {
    ScopedSpan s(SpanName::kLogProgress);
    inner_->handle_log_progress(lp);
  }
  void handle_ack(const MsgId& id) override {
    ScopedSpan s(SpanName::kAck);
    inner_->handle_ack(id);
  }
  void handle_dep_query(const DepQuery& q) override {
    ScopedSpan s(SpanName::kDepQuery);
    inner_->handle_dep_query(q);
  }
  void handle_dep_reply(const DepReply& r) override {
    ScopedSpan s(SpanName::kDepReply);
    inner_->handle_dep_reply(r);
  }
  void crash() override {
    ScopedSpan s(SpanName::kCrash);
    inner_->crash();
  }
  void restart() override {
    ScopedSpan s(SpanName::kRestart);
    inner_->restart();
  }
  void checkpoint_now() override {
    ScopedSpan s(SpanName::kCheckpoint);
    inner_->checkpoint_now();
  }
  void drain_tick() override {
    ScopedSpan s(SpanName::kDrainTick);
    inner_->drain_tick();
  }

  bool quiescent() const override { return inner_->quiescent(); }
  bool alive() const override { return inner_->alive(); }
  ProcessId pid() const override { return inner_->pid(); }
  Executor& executor() override { return inner_->executor(); }
  Entry current() const override { return inner_->current(); }
  const StableStorage& storage() const override { return inner_->storage(); }
  size_t receive_buffer_size() const override {
    return inner_->receive_buffer_size();
  }
  size_t send_buffer_size() const override { return inner_->send_buffer_size(); }
  size_t output_buffer_size() const override {
    return inner_->output_buffer_size();
  }
  int64_t deliveries() const override { return inner_->deliveries(); }
  int64_t rollbacks() const override { return inner_->rollbacks(); }

 private:
  // Declared first so it outlives the engine that holds a reference to it.
  std::unique_ptr<TimedApi> api_;
  std::unique_ptr<RecoveryProcess> inner_;
};

}  // namespace

ClusterHost::AppFactory timed_apps(ClusterHost::AppFactory make) {
  return [make = std::move(make)](ProcessId pid) -> std::unique_ptr<Application> {
    return std::make_unique<TimedApp>(make(pid));
  };
}

ClusterHost::EngineFactory timed_engines(ClusterHost::EngineFactory make) {
  return [make = std::move(make)](ProcessId pid, const ClusterConfig& cfg,
                                  ClusterApi& api,
                                  std::unique_ptr<Application> app)
             -> std::unique_ptr<RecoveryProcess> {
    auto timed_api = std::make_unique<TimedApi>(api);
    std::unique_ptr<RecoveryProcess> inner =
        make(pid, cfg, *timed_api, std::move(app));
    return std::make_unique<TimedEngine>(std::move(timed_api),
                                         std::move(inner));
  };
}

}  // namespace perfbench
