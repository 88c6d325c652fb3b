// Telecom switch scenario — the paper's motivating application (§1, §4.1):
// a continuously-running, service-providing system that must stay
// responsive during normal operation *and* recover fast when software
// faults crash a call server.
//
// The same call-processing workload (client-server request/reply with
// outside-world call-setup confirmations) runs under four recovery
// configurations, with an identical burst of three crashes:
//
//     pessimistic  — classical telecom choice [Huang & Wang 95]
//     K=0          — same no-revocation guarantee, asynchronous logging
//     K=2          — the paper's tunable middle ground
//     K=N          — traditional optimistic logging
//
// Watch the two costs move in opposite directions as K grows: call-setup
// latency (failure-free overhead) falls, rollback disruption (recovery
// cost) rises. K is the knob.
#include <iostream>

#include "app/workloads.h"
#include "core/cluster.h"
#include "core/failure_injector.h"
#include "core/metrics.h"

using namespace koptlog;

namespace {

struct Outcome {
  double call_setup_p99_us = 0;
  double call_setup_mean_us = 0;
  int64_t rollbacks = 0;
  int64_t dropped_calls = 0;  // orphan messages discarded
  size_t confirmations = 0;
};

Outcome run_switch(const ProtocolConfig& protocol, const char* /*name*/) {
  ClusterConfig cfg;
  cfg.n = 6;
  cfg.seed = 7;
  cfg.protocol = protocol;
  // A switch under load: expensive stable storage (3 ms per synchronous
  // write — think replicated stable storage) is exactly the regime where
  // pessimistic logging hurts, while the optimistic family amortizes the
  // same storage through frequent asynchronous flushes.
  cfg.protocol.storage.sync_write_us = 3'000;
  cfg.protocol.flush_interval_us = 2'000;
  cfg.protocol.notify_interval_us = 4'000;
  cfg.enable_oracle = false;

  Cluster cluster(cfg, make_client_server_app({.output_every = 1}));
  cluster.start();
  inject_client_requests(cluster, 400, 1'000, 1'200'000, /*seed=*/99);
  apply_failure_plan(cluster, FailurePlan::random(Rng(7).fork("faults"), cfg.n,
                                                  5, 150'000, 1'100'000));
  cluster.run_for(2'500'000);
  cluster.drain();

  Outcome out;
  Histogram e2e;
  for (const auto& o : cluster.outputs()) {
    if (o.payload.c > 0 && o.committed_at >= o.payload.c)
      e2e.add(static_cast<double>(o.committed_at - o.payload.c));
  }
  out.call_setup_mean_us = e2e.mean();
  out.call_setup_p99_us = e2e.p99();
  out.rollbacks = cluster.stats().counter("rollback.count");
  out.dropped_calls = cluster.stats().counter("msgs.discarded_orphan_recv");
  out.confirmations = cluster.outputs().size();
  return out;
}

}  // namespace

int main() {
  std::cout
      << "Telecom switch: 6 call servers, 400 call setups, 5 crashes,\n"
      << "3 ms synchronous stable-storage writes. Pick your K.\n\n";

  Table t({"config", "setup_mean_us", "setup_p99_us", "rollbacks",
           "orphaned_msgs", "confirmed_calls"});
  std::vector<std::pair<const char*, ProtocolConfig>> configs = {
      {"pessimistic", ProtocolConfig::pessimistic()},
      {"K=0", ProtocolConfig::k_optimistic(0)},
      {"K=2", ProtocolConfig::k_optimistic(2)},
      {"K=N (optimistic)", ProtocolConfig::traditional_optimistic()}};
  for (auto& [name, protocol] : configs) {
    Outcome o = run_switch(protocol, name);
    t.row()
        .cell(name)
        .cell(o.call_setup_mean_us, 0)
        .cell(o.call_setup_p99_us, 0)
        .cell(o.rollbacks)
        .cell(o.dropped_calls)
        .cell(static_cast<int64_t>(o.confirmations));
  }
  t.print(std::cout, "one workload, four recovery contracts");
  std::cout
      << "The paper's point (§4.1): neither extreme fits every release of a\n"
      << "switch. K-optimistic logging makes the tradeoff a runtime "
         "parameter.\n";
  return 0;
}
