#include "obs/audit.h"

#include <sstream>

#include "obs/live_audit.h"

namespace koptlog {

std::string AuditReport::summary() const {
  std::ostringstream os;
  if (ok()) {
    os << "audit OK";
  } else {
    os << "audit FAILED (" << violations.size() << " violations)";
  }
  os << ": events=" << events << " intervals=" << intervals
     << " dead=" << dead_intervals << " announcements=" << announcements
     << " rollbacks=" << rollbacks << " releases=" << releases_checked
     << " commits=" << commits_checked << " outputs=" << distinct_outputs;
  if (dropped_events > 0) os << " dropped=" << dropped_events;
  if (!ok()) os << "\n  first: " << violations.front();
  return os.str();
}

AuditReport audit_trace(const Trace& trace) {
  LiveAudit audit(trace.n);
  for (const ProtocolEvent& e : trace.events) audit.on_event(e);
  return audit.report();
}

}  // namespace koptlog
