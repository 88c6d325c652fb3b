// Property sweeps: every combination of (workload, N, K, failure count,
// logging cadence, seed) must satisfy the paper's theorems, as checked by
// the ground-truth oracle after running to quiescence:
//   - no surviving orphan (Theorems 1/2),
//   - rollbacks are exact (nothing non-orphan is undone),
//   - entries are NULLed only when truly stable (Theorem 3),
//   - released messages carry <= K live entries, and every non-stable
//     dependency at release is covered by a live entry (Theorem 4),
//   - recovered state hashes match first-execution hashes (PWD model),
//   - committed outputs are never revoked.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "app/workloads.h"
#include "core/cluster.h"
#include "core/failure_injector.h"
#include "direct/direct_process.h"

namespace koptlog {
namespace {

struct SweepParam {
  const char* workload;
  int n;
  int k;  // -1 = unbounded (traditional optimistic)
  int failures;
  bool slow_logging;
  bool reliable;     // sender-based retransmission extension
  bool no_gc;        // garbage collection disabled
  bool coordinated;  // cluster-coordinated checkpoint rounds
  uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::string k = p.k < 0 ? "N" : std::to_string(p.k);
  return std::string(p.workload) + "_n" + std::to_string(p.n) + "_k" + k +
         "_f" + std::to_string(p.failures) + (p.slow_logging ? "_slow" : "") +
         (p.reliable ? "_rel" : "") + (p.no_gc ? "_nogc" : "") +
         (p.coordinated ? "_coord" : "") + "_s" + std::to_string(p.seed);
}

class RecoverySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RecoverySweep, OracleVerifiesAllTheorems) {
  const SweepParam& param = GetParam();
  ClusterConfig cfg;
  cfg.n = param.n;
  cfg.seed = param.seed;
  cfg.enable_oracle = true;
  cfg.protocol.k = param.k < 0 ? ProtocolConfig::kUnboundedK : param.k;
  cfg.protocol.reliable_delivery = param.reliable;
  cfg.protocol.garbage_collect = !param.no_gc;
  cfg.protocol.coordinated_checkpoints = param.coordinated;
  if (param.slow_logging) {
    cfg.protocol.flush_interval_us = 25'000;
    cfg.protocol.notify_interval_us = 40'000;
    cfg.protocol.checkpoint_interval_us = 150'000;
  }

  Cluster::AppFactory factory;
  if (std::string(param.workload) == "uniform") {
    factory = make_uniform_app({.extra_send_denominator = 3, .output_every = 7});
  } else if (std::string(param.workload) == "pipeline") {
    factory = make_pipeline_app({.output_every = 2});
  } else {
    factory = make_client_server_app({.output_every = 3});
  }

  Cluster cluster(cfg, factory);
  cluster.start();

  constexpr SimTime kLoadEnd = 200'000;
  if (std::string(param.workload) == "uniform") {
    inject_uniform_load(cluster, 40, 1'000, kLoadEnd, /*ttl=*/7,
                        param.seed * 31 + 1);
  } else if (std::string(param.workload) == "pipeline") {
    inject_pipeline_load(cluster, 40, 1'000, kLoadEnd);
  } else {
    inject_client_requests(cluster, 40, 1'000, kLoadEnd, param.seed * 17 + 3);
  }

  if (param.failures > 0) {
    FailurePlan plan = FailurePlan::random(Rng(param.seed).fork("failures"),
                                           param.n, param.failures, 20'000,
                                           kLoadEnd + 50'000);
    apply_failure_plan(cluster, plan);
  }

  cluster.run_for(600'000);
  cluster.drain();

  Oracle::Report rep = cluster.oracle()->verify(/*strict_thm4=*/true);
  EXPECT_TRUE(rep.ok) << param_name({GetParam(), 0}) << "\n" << rep.summary();

  // Sanity: work actually happened.
  EXPECT_GT(cluster.stats().counter("msgs.delivered"), 40);
  if (param.failures == 0) {
    EXPECT_EQ(rep.lost, 0u);
    EXPECT_EQ(cluster.stats().counter("rollback.count"), 0);
  }
}

constexpr uint64_t kSeeds[] = {1, 2, 3};

std::vector<SweepParam> make_sweep() {
  std::vector<SweepParam> out;
  for (const char* wl : {"uniform", "pipeline", "clientserver"}) {
    for (int n : {3, 6}) {
      for (int k : {0, 1, 2, -1}) {
        for (int failures : {0, 1, 3}) {
          for (uint64_t seed : kSeeds) {
            // The extension axes (slow logging cadence, reliable
            // delivery, GC off) run on one representative slice each to
            // bound the suite's size; they are orthogonal to the others.
            out.push_back(SweepParam{wl, n, k, failures, false, false,
                                     false, false, seed});
            if (k == -1 && failures == 3) {
              out.push_back(SweepParam{wl, n, k, failures, true, false, false,
                                       false, seed});
              out.push_back(SweepParam{wl, n, k, failures, false, true, false,
                                       false, seed});
              out.push_back(SweepParam{wl, n, k, failures, false, false, true,
                                       false, seed});
              out.push_back(SweepParam{wl, n, k, failures, false, false,
                                       false, true, seed});
            }
            if (k == 1 && failures == 3) {
              out.push_back(SweepParam{wl, n, k, failures, false, true, false,
                                       false, seed});
              out.push_back(SweepParam{wl, n, k, failures, false, false,
                                       false, true, seed});
            }
          }
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllConfigurations, RecoverySweep,
                         ::testing::ValuesIn(make_sweep()), param_name);

// The baselines must satisfy the same global properties.
struct BaselineParam {
  const char* name;
  int failures;
  uint64_t seed;
};

// gtest's default printer dumps a struct's raw bytes, and the string
// pointer in them moves with every load address, so the discovered test
// names would differ from one build to the next. Print the values instead.
void PrintTo(const BaselineParam& p, std::ostream* os) {
  *os << p.name << ',' << p.failures << ',' << p.seed;
}

std::string baseline_name(const ::testing::TestParamInfo<BaselineParam>& info) {
  return std::string(info.param.name) + "_f" +
         std::to_string(info.param.failures) + "_s" +
         std::to_string(info.param.seed);
}

class BaselineSweep : public ::testing::TestWithParam<BaselineParam> {};

TEST_P(BaselineSweep, OracleVerifies) {
  const BaselineParam& param = GetParam();
  ClusterConfig cfg;
  cfg.n = 5;
  cfg.seed = param.seed;
  cfg.enable_oracle = true;
  if (std::string(param.name) == "pessimistic") {
    cfg.protocol = ProtocolConfig::pessimistic();
  } else if (std::string(param.name) == "strom_yemini") {
    cfg.protocol = ProtocolConfig::strom_yemini();
    cfg.fifo = true;  // SY assumes FIFO channels
  } else {            // full_tdv: improved protocol minus Theorem 2
    cfg.protocol.null_stable_entries = false;
  }

  Cluster cluster(cfg, make_uniform_app({}));
  cluster.start();
  inject_uniform_load(cluster, 40, 1'000, 200'000, 7, param.seed + 5);
  if (param.failures > 0) {
    apply_failure_plan(cluster,
                       FailurePlan::random(Rng(param.seed).fork("f"), cfg.n,
                                           param.failures, 20'000, 250'000));
  }
  cluster.run_for(600'000);
  cluster.drain();

  Oracle::Report rep = cluster.oracle()->verify(/*strict_thm4=*/true);
  EXPECT_TRUE(rep.ok) << rep.summary();
  if (std::string(param.name) == "pessimistic") {
    EXPECT_EQ(cluster.stats().counter("rollback.count"), 0);
    EXPECT_EQ(rep.lost, 0u);
  }
}

std::vector<BaselineParam> make_baseline_sweep() {
  std::vector<BaselineParam> out;
  for (const char* name : {"pessimistic", "strom_yemini", "full_tdv"}) {
    for (int failures : {0, 2, 4}) {
      for (uint64_t seed : kSeeds) out.push_back({name, failures, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Baselines, BaselineSweep,
                         ::testing::ValuesIn(make_baseline_sweep()),
                         baseline_name);

// The direct-dependency-tracking engine must satisfy the same global
// properties (it shares the oracle; Theorem-4 strict checking is vacuous
// for it since it releases nothing under a K contract).
struct DirectParam {
  const char* workload;
  int n;
  int failures;
  uint64_t seed;
};

void PrintTo(const DirectParam& p, std::ostream* os) {
  *os << p.workload << ',' << p.n << ',' << p.failures << ',' << p.seed;
}

std::string direct_name(const ::testing::TestParamInfo<DirectParam>& info) {
  return std::string(info.param.workload) + "_n" +
         std::to_string(info.param.n) + "_f" +
         std::to_string(info.param.failures) + "_s" +
         std::to_string(info.param.seed);
}

class DirectSweep : public ::testing::TestWithParam<DirectParam> {};

TEST_P(DirectSweep, OracleVerifies) {
  const DirectParam& param = GetParam();
  ClusterConfig cfg;
  cfg.n = param.n;
  cfg.seed = param.seed;
  cfg.enable_oracle = true;
  Cluster cluster(cfg,
                  std::string(param.workload) == "uniform"
                      ? make_uniform_app({})
                      : std::string(param.workload) == "pipeline"
                            ? make_pipeline_app({})
                            : make_client_server_app({}),
                  DirectProcess::factory());
  cluster.start();
  if (std::string(param.workload) == "uniform") {
    inject_uniform_load(cluster, 40, 1'000, 200'000, 7, param.seed * 37 + 1);
  } else if (std::string(param.workload) == "pipeline") {
    inject_pipeline_load(cluster, 40, 1'000, 200'000);
  } else {
    inject_client_requests(cluster, 40, 1'000, 200'000, param.seed * 41 + 3);
  }
  if (param.failures > 0) {
    apply_failure_plan(cluster,
                       FailurePlan::random(Rng(param.seed).fork("direct"),
                                           param.n, param.failures, 20'000,
                                           250'000));
  }
  cluster.run_for(800'000);
  cluster.drain();
  Oracle::Report rep = cluster.oracle()->verify(true);
  EXPECT_TRUE(rep.ok) << rep.summary();
  EXPECT_GT(cluster.stats().counter("msgs.delivered"), 40);
  if (param.failures == 0) {
    EXPECT_EQ(rep.lost, 0u);
    EXPECT_EQ(cluster.stats().counter("rollback.count"), 0);
  }
}

std::vector<DirectParam> make_direct_sweep() {
  std::vector<DirectParam> out;
  for (const char* wl : {"uniform", "pipeline", "clientserver"}) {
    for (int n : {3, 6}) {
      for (int failures : {0, 1, 3}) {
        for (uint64_t seed : kSeeds) out.push_back({wl, n, failures, seed});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(DirectEngineSweep, DirectSweep,
                         ::testing::ValuesIn(make_direct_sweep()),
                         direct_name);

}  // namespace
}  // namespace koptlog
