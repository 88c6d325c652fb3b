// Trace audit — re-verifies the paper's guarantees from a recorded event
// stream alone, with no oracle and no access to protocol internals. This is
// the production-shaped check: any deployment that can capture the JSONL
// event log can run it post hoc.
//
// There is one auditor: audit_trace replays the trace through LiveAudit
// (obs/live_audit.h), which documents the invariants it checks, and returns
// its report. Violations cite the offending event as "P<pid>#<seq> t=<t>: ...".
#pragma once

#include <string>
#include <vector>

#include "obs/trace_io.h"

namespace koptlog {

struct AuditReport {
  std::vector<std::string> violations;

  // Coverage counters, so callers can assert the audit actually had
  // something to chew on (an empty trace passes vacuously).
  size_t events = 0;
  size_t intervals = 0;
  size_t commits_checked = 0;
  size_t distinct_outputs = 0;
  size_t releases_checked = 0;
  size_t announcements = 0;
  size_t rollbacks = 0;
  size_t dead_intervals = 0;
  /// Events lost to ring-recorder overflow, summed from recorder_drop gap
  /// markers. Nonzero means the verdict covers only the surviving stream.
  uint64_t dropped_events = 0;

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

AuditReport audit_trace(const Trace& trace);

}  // namespace koptlog
