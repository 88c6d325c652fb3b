// E3 — Recovery efficiency across the K spectrum (paper §1 "fast and
// localized recovery", §4.1). Identical workload and failure plan at every
// K; what changes is how far a failure's damage spreads. Expected shape:
// rollback scope (processes rolled back, intervals undone, orphan messages
// discarded) shrinks monotonically as K falls, reaching zero at K=0 and for
// the pessimistic baseline; traditional optimistic (K=N) pays the largest
// rollback scope in exchange for its lower failure-free overhead (E2).
#include <algorithm>
#include <iostream>
#include <vector>

#include "analysis/causal_graph.h"
#include "analysis/critical_path.h"
#include "core/metrics.h"
#include "scenario.h"

using namespace koptlog;
using namespace koptlog::bench;

int main() {
  constexpr int kN = 8;
  constexpr int kSeeds = 12;
  constexpr int kFailures = 3;
  std::cout << "E3: recovery efficiency vs degree of optimism K\n"
            << "(uniform workload, N=" << kN << ", " << kFailures
            << " failures per run, " << kSeeds << " seeds summed)\n\n";

  Table t({"K", "rollbacks", "undone_ivals", "orphan_msgs", "replayed",
           "outputs", "true_orphans", "lost_ivals", "cp_hops_max",
           "cp_settle_max_ms"});

  std::vector<ProtocolConfig> configs;
  configs.push_back(ProtocolConfig::pessimistic());
  for (int k : {0, 1, 2, 4, kN})
    configs.push_back(ProtocolConfig::k_optimistic(k));

  for (const ProtocolConfig& cfg : configs) {
    int64_t rollbacks = 0, undone = 0, orphans = 0, replayed = 0;
    size_t outputs = 0, doomed = 0, lost = 0;
    int cp_hops_max = 0;
    SimTime cp_settle_max = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      ScenarioParams p;
      p.n = kN;
      p.seed = seed;
      p.protocol = cfg;
      p.oracle = true;
      p.injections = 120;
      p.load_end_us = 700'000;
      p.failures = kFailures;
      p.fail_from_us = 100'000;
      p.fail_to_us = 800'000;
      p.record_events = true;
      ScenarioResult r = run_scenario(p);
      if (!r.oracle_ok) {
        std::cerr << "ORACLE VIOLATION: " << r.oracle_summary << "\n";
        return 1;
      }
      rollbacks += r.counter("rollback.count");
      undone += r.counter("rollback.undone_intervals");
      orphans += r.counter("msgs.discarded_orphan_recv") +
                 r.counter("msgs.discarded_orphan_send");
      replayed += r.counter("restart.replayed_msgs");
      outputs += r.outputs;
      doomed += r.true_orphans;
      lost += r.lost;
      // Recovery critical path over the recorded trace: how long a
      // dependency chain a failure dragged down, and how long until its
      // damage settled (last forced rollback/retransmit).
      analysis::CausalGraph graph(r.trace);
      analysis::CriticalPathSummary cp = analysis::summarize_critical_paths(
          analysis::compute_critical_paths(graph));
      cp_hops_max = std::max(cp_hops_max, cp.max_hops);
      cp_settle_max = std::max(cp_settle_max, cp.max_settle_us);
    }
    t.row()
        .cell(k_label(cfg, kN))
        .cell(rollbacks)
        .cell(undone)
        .cell(orphans)
        .cell(replayed)
        .cell(static_cast<int64_t>(outputs))
        .cell(static_cast<int64_t>(doomed))
        .cell(static_cast<int64_t>(lost))
        .cell(static_cast<int64_t>(cp_hops_max))
        .cell(static_cast<double>(cp_settle_max) / 1000.0, 1);
  }
  t.print(std::cout, "recovery scope vs K (same failure plans everywhere)");
  BenchJson j("e3_recovery_vs_k");
  j.param("n", kN).param("seeds", kSeeds).param("failures", kFailures)
      .param("injections", 120);
  j.table("recovery scope vs K", t);
  if (std::string path = j.write_file(); !path.empty())
    std::cout << "wrote " << path << "\n";
  std::cout
      << "Reading: at K=0 and 'pess' no released message is ever revoked, so "
         "non-failed processes never roll back; rollback scope grows with K "
         "because more risk is in flight when a failure strikes.\n";
  return 0;
}
