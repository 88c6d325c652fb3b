// E5 — The pessimistic / K-optimistic / optimistic spectrum end to end
// (paper §1 and §4.1: "a telecommunications system needs to choose a
// parameter to control the overhead so that it can be responsive during
// normal operation, and also control the rollback scope so that it can
// recover reasonably fast"). A client-server service runs the same request
// stream under each configuration while the synchronous stable-storage
// write cost sweeps from cheap to expensive. Expected shape: pessimistic
// logging's makespan and output latency grow with the write cost (every
// delivery blocks on the disk) while the optimistic family is insensitive
// to it; under failures, rollback scope orders pess = K0 < K2 < KN.
#include <iostream>
#include <vector>

#include "core/metrics.h"
#include "scenario.h"

using namespace koptlog;
using namespace koptlog::bench;

namespace {

constexpr int kN = 6;

ScenarioResult run_one(ProtocolConfig cfg, SimTime sync_cost, int failures,
                       uint64_t seed) {
  cfg.storage.sync_write_us = sync_cost;
  ScenarioParams p;
  p.n = kN;
  p.seed = seed;
  p.protocol = cfg;
  p.workload = Workload::kClientServer;
  p.injections = 300;
  p.load_end_us = 900'000;
  p.failures = failures;
  p.fail_from_us = 150'000;
  p.fail_to_us = 800'000;
  return run_scenario(p);
}

std::vector<std::pair<std::string, ProtocolConfig>> spectrum() {
  return {{"pess", ProtocolConfig::pessimistic()},
          {"K=0", ProtocolConfig::k_optimistic(0)},
          {"K=2", ProtocolConfig::k_optimistic(2)},
          {"K=N", ProtocolConfig::traditional_optimistic()}};
}

void failure_free_table(BenchJson& j) {
  Table t({"sync_us", "mode", "req_e2e_mean_us", "req_e2e_p99_us",
           "out_lat_mean_us", "sync_writes", "recv_wait_us"});
  for (SimTime sync_cost : {100, 500, 2000, 5000}) {
    for (auto& [name, cfg] : spectrum()) {
      ScenarioResult r = run_one(cfg, sync_cost, 0, 1);
      t.row()
          .cell(static_cast<int64_t>(sync_cost))
          .cell(name)
          .cell(r.hist("request.e2e_us").mean(), 0)
          .cell(r.hist("request.e2e_us").p99(), 0)
          .cell(r.hist("output.commit_latency_us").mean(), 0)
          .cell(r.counter("storage.sync_writes"))
          .cell(r.hist("recv.wait_us").mean(), 1);
    }
  }
  t.print(std::cout, "failure-free service cost vs stable-storage write cost");
  j.table("failure-free service cost vs stable-storage write cost", t);
}

void failure_table(BenchJson& j) {
  Table t({"mode", "rollbacks", "undone", "orphan_msgs", "outputs",
           "out_lat_p99_us"});
  for (auto& [name, cfg] : spectrum()) {
    int64_t rollbacks = 0, undone = 0, orphans = 0;
    size_t outputs = 0;
    double p99 = 0;
    constexpr int kSeeds = 3;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      ScenarioResult r = run_one(cfg, 500, /*failures=*/3, seed);
      rollbacks += r.counter("rollback.count");
      undone += r.counter("rollback.undone_intervals");
      orphans += r.counter("msgs.discarded_orphan_recv");
      outputs += r.outputs;
      p99 += r.hist("output.commit_latency_us").p99();
    }
    t.row()
        .cell(name)
        .cell(rollbacks)
        .cell(undone)
        .cell(orphans)
        .cell(static_cast<int64_t>(outputs))
        .cell(p99 / kSeeds, 0);
  }
  t.print(std::cout, "recovery behaviour under 3 failures (sync=500us)");
  j.table("recovery behaviour under 3 failures (sync=500us)", t);
}

}  // namespace

int main() {
  std::cout << "E5: the pessimistic / K-optimistic / optimistic spectrum\n"
            << "(client-server workload, N=" << kN << ")\n\n";
  BenchJson j("e5_spectrum");
  failure_free_table(j);
  failure_table(j);
  std::cout << "Reading: pessimistic tracks the disk (sync writes per "
               "delivery); the optimistic family doesn't. Under failures the "
               "rollback scope grows with K — K is the knob that trades one "
               "against the other (§4.1).\n";
  if (std::string path = j.write_file(); !path.empty())
    std::cout << "wrote " << path << "\n";
  return 0;
}
