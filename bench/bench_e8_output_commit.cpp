// E8 — Output-commit latency (paper §2 "Output commit", §4.2: "an output
// can be viewed as a 0-optimistic message"). An output commits once every
// interval it depends on is stable, so its latency is governed by how fast
// stability information is produced (flush cadence) and spread
// (notification cadence) — and is independent of the message-release K.
// Expected shape: latency scales with flush+notify periods; K's columns are
// flat; the pessimistic mechanism commits almost immediately.
#include <iostream>

#include "analysis/causal_graph.h"
#include "core/metrics.h"
#include "scenario.h"
#include "sim/stats.h"

using namespace koptlog;
using namespace koptlog::bench;

int main() {
  constexpr int kN = 6;
  std::cout << "E8: output-commit latency vs K and logging cadence\n"
            << "(client-server workload, N=" << kN << ", no failures)\n\n";

  Table t({"flush/notify_ms", "K", "commit_mean_us", "commit_p99_us",
           "outputs", "hold_p50_us", "hold_p99_us"});
  for (SimTime cadence_ms : {2, 10, 40}) {
    std::vector<std::pair<std::string, ProtocolConfig>> modes = {
        {"pess", ProtocolConfig::pessimistic()},
        {"0", ProtocolConfig::k_optimistic(0)},
        {"2", ProtocolConfig::k_optimistic(2)},
        {"N", ProtocolConfig::traditional_optimistic()}};
    for (auto& [name, cfg] : modes) {
      cfg.flush_interval_us = cadence_ms * 1000;
      cfg.notify_interval_us = cadence_ms * 1000;
      ScenarioParams p;
      p.n = kN;
      p.seed = 3;
      p.protocol = cfg;
      p.workload = Workload::kClientServer;
      p.injections = 250;
      p.load_end_us = 900'000;
      p.record_events = true;
      ScenarioResult r = run_scenario(p);
      // Send-buffer hold times from the recorded trace's message episodes
      // (the K-governed side of the latency story, alongside the
      // K-independent commit column).
      analysis::CausalGraph graph(r.trace);
      Histogram hold;
      for (const analysis::MsgEpisode& ep : graph.episodes()) {
        if (ep.send_ev < 0 || ep.release_ev < 0) continue;
        hold.add(static_cast<double>(
            r.trace.events[static_cast<size_t>(ep.release_ev)].t -
            r.trace.events[static_cast<size_t>(ep.send_ev)].t));
      }
      t.row()
          .cell(static_cast<int64_t>(cadence_ms))
          .cell(name)
          .cell(r.hist("output.commit_latency_us").mean(), 0)
          .cell(r.hist("output.commit_latency_us").p99(), 0)
          .cell(static_cast<int64_t>(r.outputs))
          .cell(hold.p50(), 0)
          .cell(hold.p99(), 0);
    }
  }
  t.print(std::cout, "output-commit latency");
  BenchJson j("e8_output_commit");
  j.param("n", kN).param("seed", 3).param("injections", 250)
      .param("workload", "clientserver");
  j.table("output-commit latency", t);
  if (std::string path = j.write_file(); !path.empty())
    std::cout << "wrote " << path << "\n";
  std::cout << "Reading: outputs are 0-optimistic regardless of the system's "
               "K, so the logging cadence dominates commit latency at every "
               "K; smaller K helps a little on top (messages carry fewer "
               "live dependencies for receivers to inherit), and synchronous "
               "(pessimistic) logging commits fastest because every interval "
               "is stable on creation.\n";
  return 0;
}
