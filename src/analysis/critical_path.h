// Recovery critical path: for every failure/rollback announcement in a
// trace, which rollbacks and retransmits did it force, and along which
// dependency chain? A rollback is attributed to announcement F when one of
// the intervals it undid transitively depends on an interval F declared
// dead (Theorem 1); a retransmit is attributed to the latest preceding
// announcement by the process that lost the message. The critical path is
// the longest such chain, from the announcement through the dead interval
// and its dependents to the terminal rollback/retransmit, with per-hop
// time attribution — reported as a table and as annotated Perfetto slices.
#pragma once

#include <iosfwd>
#include <string>

#include "analysis/causal_graph.h"

namespace koptlog::analysis {

struct PathHop {
  IntervalId iv;
  SimTime t = 0;  ///< creation time (the announcement's time for hop 0)
  /// Delivery that propagated the dependency into this hop, if any.
  std::optional<MsgId> via;
};

struct FailureImpact {
  int announce_ev = -1;
  ProcessId pid = 0;  ///< the announcing (failed / rolled-back) process
  Entry ended;
  SimTime t = 0;
  bool from_failure = false;
  std::vector<int> forced_rollbacks;    ///< rollback event indices
  std::vector<int> forced_retransmits;  ///< retransmit event indices
  /// Time of the last forced event (== t when nothing was forced).
  SimTime settled_at = 0;
  /// Longest dependency chain, forward: dead interval first, the undone
  /// interval of the terminal rollback last. Empty for retransmit-only or
  /// harmless announcements.
  std::vector<PathHop> critical;
  int terminal_ev = -1;  ///< the rollback/retransmit the path ends in
};

std::vector<FailureImpact> compute_critical_paths(const CausalGraph& g);

void print_critical_paths(const CausalGraph& g,
                          const std::vector<FailureImpact>& impacts,
                          std::ostream& os);

/// Chrome-JSON trace: one thread per announcement, one slice per hop plus
/// flow arrows, loadable next to the simulator's own Perfetto export.
/// Returns false when the file cannot be written.
bool write_critical_path_perfetto(const std::vector<FailureImpact>& impacts,
                                  const std::string& path);

/// Scalar digest for bench tables (BENCH json columns).
struct CriticalPathSummary {
  int announcements = 0;
  int forced_rollbacks = 0;
  int forced_retransmits = 0;
  int max_hops = 0;          ///< longest critical chain (intervals)
  SimTime max_settle_us = 0; ///< max settled_at - t over announcements
};

CriticalPathSummary summarize_critical_paths(
    const std::vector<FailureImpact>& impacts);

}  // namespace koptlog::analysis
