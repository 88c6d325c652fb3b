// EngineRegistry: name resolution for the built-in engines and presets,
// and the extension point — a toy engine defined *here* (outside core/)
// registers itself and runs a full cluster workload through
// make_cluster_with_engine.
#include <gtest/gtest.h>

#include <memory>

#include "app/workloads.h"
#include "core/cluster.h"
#include "core/engine_registry.h"
#include "core/process.h"

namespace koptlog {
namespace {

TEST(EngineRegistryTest, BuiltinsResolve) {
  EngineRegistry& reg = EngineRegistry::instance();
  for (const char* name : {"kopt", "direct", "pessimistic", "strom-yemini"}) {
    const EngineRegistry::Entry* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_TRUE(e->factory) << name;
    EXPECT_FALSE(e->description.empty()) << name;
  }
  EXPECT_EQ(reg.find("no-such-engine"), nullptr);
  EXPECT_NE(reg.names_joined().find("kopt"), std::string::npos);
  EXPECT_NE(reg.names_joined().find("direct"), std::string::npos);
}

TEST(EngineRegistryTest, PresetsPinTheProtocolConfig) {
  // The preset names run on the kopt engine with a pinned ProtocolConfig;
  // plain engine names leave the caller's config alone.
  const EngineRegistry::Entry* pess =
      EngineRegistry::instance().find("pessimistic");
  ASSERT_NE(pess, nullptr);
  ASSERT_TRUE(static_cast<bool>(pess->configure));
  ClusterConfig cfg;
  cfg.protocol = ProtocolConfig::k_optimistic(3);
  pess->configure(cfg);
  EXPECT_EQ(cfg.protocol.k, ProtocolConfig::pessimistic().k);

  const EngineRegistry::Entry* sy =
      EngineRegistry::instance().find("strom-yemini");
  ASSERT_NE(sy, nullptr);
  ASSERT_TRUE(static_cast<bool>(sy->configure));
  ClusterConfig sy_cfg;
  sy->configure(sy_cfg);
  EXPECT_TRUE(sy_cfg.fifo);

  const EngineRegistry::Entry* kopt = EngineRegistry::instance().find("kopt");
  ASSERT_NE(kopt, nullptr);
  EXPECT_FALSE(static_cast<bool>(kopt->configure));
}

TEST(EngineRegistryTest, DuplicateNamesAreRejected) {
  EngineRegistry::Entry entry;
  entry.factory = [](ProcessId, const ClusterConfig&, ClusterApi&,
                     std::unique_ptr<Application>)
      -> std::unique_ptr<RecoveryProcess> { return nullptr; };
  entry.description = "must not replace the builtin";
  EXPECT_FALSE(EngineRegistry::instance().add("kopt", entry));
  ASSERT_NE(EngineRegistry::instance().find("kopt"), nullptr);
  EXPECT_NE(EngineRegistry::instance().find("kopt")->description,
            entry.description);
}

TEST(EngineRegistryTest, UnknownEngineYieldsNullCluster) {
  ClusterConfig cfg;
  cfg.n = 2;
  EXPECT_EQ(make_cluster_with_engine("no-such-engine", cfg,
                                     make_uniform_app({})),
            nullptr);
}

// ---- the extension point: an engine defined outside core/ ----

/// A delegating wrapper around the paper's Process: same protocol, but it
/// counts every event crossing the RecoveryProcess surface. Exactly what an
/// out-of-tree experiment engine looks like to the registry.
class CountingEngine : public RecoveryProcess {
 public:
  struct Counters {
    int built = 0;
    int64_t app_msgs = 0;
    int64_t announcements = 0;
    int64_t crashes = 0;
  };

  CountingEngine(std::unique_ptr<Process> inner, Counters* c)
      : inner_(std::move(inner)), c_(c) {
    ++c_->built;
  }

  void start_process() override { inner_->start_process(); }
  void handle_app_msg(const AppMsg& m) override {
    ++c_->app_msgs;
    inner_->handle_app_msg(m);
  }
  void handle_announcement(const Announcement& a) override {
    ++c_->announcements;
    inner_->handle_announcement(a);
  }
  void handle_log_progress(const LogProgressMsg& lp) override {
    inner_->handle_log_progress(lp);
  }
  void handle_ack(const MsgId& id) override { inner_->handle_ack(id); }
  void handle_dep_query(const DepQuery& q) override {
    inner_->handle_dep_query(q);
  }
  void handle_dep_reply(const DepReply& r) override {
    inner_->handle_dep_reply(r);
  }
  void crash() override {
    ++c_->crashes;
    inner_->crash();
  }
  void restart() override { inner_->restart(); }
  void checkpoint_now() override { inner_->checkpoint_now(); }
  void drain_tick() override { inner_->drain_tick(); }
  bool quiescent() const override { return inner_->quiescent(); }
  bool alive() const override { return inner_->alive(); }
  ProcessId pid() const override { return inner_->pid(); }
  Executor& executor() override { return inner_->executor(); }
  Entry current() const override { return inner_->current(); }
  const StableStorage& storage() const override { return inner_->storage(); }
  size_t receive_buffer_size() const override {
    return inner_->receive_buffer_size();
  }
  size_t send_buffer_size() const override {
    return inner_->send_buffer_size();
  }
  size_t output_buffer_size() const override {
    return inner_->output_buffer_size();
  }
  int64_t deliveries() const override { return inner_->deliveries(); }
  int64_t rollbacks() const override { return inner_->rollbacks(); }

 private:
  std::unique_ptr<Process> inner_;
  Counters* c_;
};

TEST(EngineRegistryTest, ToyEngineRegistersAndRuns) {
  static CountingEngine::Counters counters;
  counters = {};
  EngineRegistry::Entry entry;
  entry.description = "kopt wrapped in an event counter (test-only)";
  entry.factory = [](ProcessId pid, const ClusterConfig& cfg, ClusterApi& api,
                     std::unique_ptr<Application> app)
      -> std::unique_ptr<RecoveryProcess> {
    auto inner = std::make_unique<Process>(pid, cfg.n, cfg.protocol, api,
                                           std::move(app));
    return std::make_unique<CountingEngine>(std::move(inner), &counters);
  };
  // First registration wins; a second attempt is a no-op.
  EngineRegistry::instance().add("test-counting", entry);
  EXPECT_FALSE(EngineRegistry::instance().add("test-counting", entry));
  ASSERT_NE(EngineRegistry::instance().find("test-counting"), nullptr);

  ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 21;
  cfg.protocol.k = 1;
  std::unique_ptr<Cluster> cluster =
      make_cluster_with_engine("test-counting", cfg, make_uniform_app({}));
  ASSERT_NE(cluster, nullptr);
  cluster->start();
  inject_uniform_load(*cluster, 20, 1'000, 200'000, 4, 9);
  cluster->fail_at(100'000, 1);
  cluster->run_for(1'000'000);
  cluster->drain();

  EXPECT_EQ(counters.built, cfg.n);
  EXPECT_GT(counters.app_msgs, 0);
  EXPECT_EQ(counters.crashes, 1);
  EXPECT_GT(counters.announcements, 0);
  int64_t total_deliveries = 0;
  for (ProcessId p = 0; p < cfg.n; ++p)
    total_deliveries += cluster->engine(p).deliveries();
  EXPECT_GT(total_deliveries, 0);
}

}  // namespace
}  // namespace koptlog
