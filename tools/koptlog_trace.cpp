// koptlog_trace — interrogate a recorded JSONL protocol trace.
//
//   koptlog_trace explain-commit  TRACE OUTPUT      why did this output commit?
//   koptlog_trace explain-hold    TRACE MSG         what parked this message?
//   koptlog_trace explain-orphan  TRACE INTERVAL    why was this interval doomed?
//   koptlog_trace critical-path   TRACE [--perfetto-out FILE]
//   koptlog_trace whatif          TRACE [--k-sweep 0,1,2] [--check]
//   koptlog_trace diff            A B   hop-by-hop release/commit diff
//   koptlog_trace svg             TRACE [--out FILE]
//   koptlog_trace summary         TRACE
//
// Ids: messages/outputs are "P1:2" (sender:seq, "env:4" for environment
// injections); intervals are "(inc,sii)_pid" or "pid:inc:sii".
//
// Exit codes: 0 ok; 1 query target not found (--check mismatch, or diff
// of traces that are not one-to-one); 2 usage error, unreadable trace, or
// unwritable output path.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/causal_graph.h"
#include "analysis/critical_path.h"
#include "analysis/explain.h"
#include "analysis/spacetime_svg.h"
#include "analysis/trace_diff.h"
#include "analysis/whatif.h"
#include "obs/ids.h"
#include "obs/trace_io.h"

using namespace koptlog;
using namespace koptlog::analysis;

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: koptlog_trace COMMAND TRACE.jsonl [args]\n"
      << "  explain-commit TRACE OUTPUT     commit-closure chain of an output\n"
      << "  explain-hold   TRACE MSG        live deps that parked a message\n"
      << "  explain-orphan TRACE INTERVAL   path from announcement to orphan\n"
      << "  critical-path  TRACE [--perfetto-out FILE]\n"
      << "  whatif         TRACE [--k-sweep K0,K1,...] [--check]\n"
      << "  diff           A.jsonl B.jsonl [--top N]   release/commit diff\n"
      << "                 (two same-seed different-K runs isolate K)\n"
      << "  svg            TRACE [--out FILE]\n"
      << "  summary        TRACE\n"
      << "ids: message/output \"P1:2\" or \"env:4\"; interval \"(2,6)_3\" or "
         "\"3:2:6\"\n";
  std::exit(2);
}

Trace load_trace(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "error: cannot read trace '" << path << "'\n";
    std::exit(2);
  }
  std::vector<std::string> errors;
  Trace trace = read_trace_jsonl(is, errors);
  for (const std::string& e : errors) {
    std::cerr << "warning: " << path << ": " << e << "\n";
  }
  if (trace.n <= 0) {
    std::cerr << "error: '" << path
              << "' is not a koptlog trace (no valid meta header)\n";
    std::exit(2);
  }
  return trace;
}

std::vector<int> parse_sweep(const std::string& arg, int n) {
  std::vector<int> ks;
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    try {
      size_t pos = 0;
      int k = std::stoi(tok, &pos);
      if (pos != tok.size() || k < 0) throw std::invalid_argument(tok);
      ks.push_back(k);
    } catch (const std::exception&) {
      std::cerr << "error: bad --k-sweep value '" << tok << "'\n";
      std::exit(2);
    }
  }
  if (ks.empty()) {
    for (int k = 0; k <= n; ++k) ks.push_back(k);
  }
  return ks;
}

MsgId parse_msg_or_die(const std::string& s) {
  if (auto id = parse_msg_id(s)) return *id;
  std::cerr << "error: '" << s << "' is not a message id (want \"P1:2\")\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  std::string cmd = argv[1];
  if (cmd == "diff") {
    if (argc < 4) usage();
    int top = 12;
    for (int i = 4; i < argc; ++i) {
      if (std::string(argv[i]) == "--top" && i + 1 < argc) {
        try {
          size_t pos = 0;
          top = std::stoi(argv[++i], &pos);
          if (pos != std::string(argv[i]).size() || top < 0) usage();
        } catch (const std::exception&) {
          usage();
        }
      } else {
        usage();
      }
    }
    Trace ta = load_trace(argv[2]);
    Trace tb = load_trace(argv[3]);
    CausalGraph ga(ta);
    CausalGraph gb(tb);
    TraceDiff d = diff_traces(ga, gb);
    print_trace_diff(d, std::cout, top);
    return d.comparable ? 0 : 1;
  }
  Trace trace = load_trace(argv[2]);
  CausalGraph graph(trace);

  if (cmd == "explain-commit") {
    if (argc != 4) usage();
    MsgId id = parse_msg_or_die(argv[3]);
    if (!explain_commit(graph, id, std::cout)) {
      std::cerr << "error: no output_commit for " << format_msg_id(id)
                << " in this trace\n";
      return 1;
    }
    return 0;
  }
  if (cmd == "explain-hold") {
    if (argc != 4) usage();
    MsgId id = parse_msg_or_die(argv[3]);
    if (!explain_hold(graph, id, std::cout)) {
      std::cerr << "error: no send of " << format_msg_id(id)
                << " in this trace\n";
      return 1;
    }
    return 0;
  }
  if (cmd == "explain-orphan") {
    if (argc != 4) usage();
    auto iv = parse_interval_id(argv[3]);
    if (!iv) {
      std::cerr << "error: '" << argv[3]
                << "' is not an interval id (want \"(2,6)_3\")\n";
      return 2;
    }
    if (!explain_orphan(graph, *iv, std::cout)) {
      std::cerr << "error: interval " << iv->str()
                << " does not appear in this trace\n";
      return 1;
    }
    return 0;
  }
  if (cmd == "critical-path") {
    std::string perfetto_out;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--perfetto-out" && i + 1 < argc) {
        perfetto_out = argv[++i];
      } else {
        usage();
      }
    }
    std::vector<FailureImpact> impacts = compute_critical_paths(graph);
    print_critical_paths(graph, impacts, std::cout);
    if (!perfetto_out.empty()) {
      if (!write_critical_path_perfetto(impacts, perfetto_out)) {
        std::cerr << "error: cannot write " << perfetto_out << "\n";
        return 2;
      }
      std::cout << "wrote " << perfetto_out
                << " (open in ui.perfetto.dev next to the run's own "
                   "perfetto export)\n";
    }
    return 0;
  }
  if (cmd == "whatif") {
    std::string sweep;
    bool check = false;
    for (int i = 3; i < argc; ++i) {
      std::string f = argv[i];
      if (f == "--k-sweep" && i + 1 < argc) {
        sweep = argv[++i];
      } else if (f == "--check") {
        check = true;
      } else {
        usage();
      }
    }
    if (check) {
      WhatIfCheck res = whatif_self_check(graph);
      if (!res.ok) {
        std::cerr << "whatif self-check FAILED: " << res.detail << "\n";
        return 1;
      }
      std::cout << "whatif self-check ok: replay at the recorded K "
                   "reproduces every recorded release\n";
    }
    print_whatif(whatif_sweep(graph, parse_sweep(sweep, trace.n)),
                 std::cout);
    return 0;
  }
  if (cmd == "svg") {
    std::string out;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--out" && i + 1 < argc) {
        out = argv[++i];
      } else {
        usage();
      }
    }
    std::string svg = render_spacetime_svg(graph);
    if (out.empty()) {
      std::cout << svg;
    } else {
      std::ofstream os(out);
      if (!os || !(os << svg) || !os.flush()) {
        std::cerr << "error: cannot write " << out << "\n";
        return 2;
      }
      std::cout << "wrote " << out << "\n";
    }
    return 0;
  }
  if (cmd == "summary") {
    if (argc != 3) usage();
    std::cout << "trace: n=" << trace.n << ", " << trace.events.size()
              << " events, " << graph.intervals().size() << " intervals, "
              << graph.episodes().size() << " send-buffer episodes\n"
              << "  announcements " << graph.announce_events().size()
              << ", rollbacks " << graph.rollback_events().size()
              << ", checkpoints " << graph.checkpoint_events().size()
              << ", commits " << graph.commit_events().size()
              << ", retransmits " << graph.retransmit_events().size() << "\n";
    CriticalPathSummary cp =
        summarize_critical_paths(compute_critical_paths(graph));
    std::cout << "  critical path: max " << cp.max_hops << " hops, "
              << cp.forced_rollbacks << " forced rollbacks, settle max +"
              << cp.max_settle_us << " us\n";
    return 0;
  }
  usage();
}
