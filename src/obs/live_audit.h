// LiveAudit — the trace auditor, as an online, incremental check: events
// are folded in one at a time as they stream out of the ring recorders (or
// out of a growing JSONL file), and the first violation is flagged the
// moment the contradicting event arrives, citing the offending event's
// stable id "P<pid>#<seq>" (per-process emission sequence — stable across
// merges, unlike a file line number). The post-hoc audit_trace
// (obs/audit.h) is this class replayed over a finished trace.
//
// Invariants, formulated so nothing needs the whole trace up front:
//  * Dead-interval predicate (Theorem 1): announcements accumulate per
//    process; every committed dependency is checked against the
//    announcements seen *so far* the moment it commits.
//  * Orphan-freedom of committed output (Theorems 1–3), both directions in
//    time. Commit-then-announce — the genuinely dangerous direction, where
//    an output escapes before the failure that orphans it is announced — is
//    caught by commit-closure *watermarks*: when a commit's transitive
//    closure is walked, every interval in it is folded into a per-process,
//    per-incarnation high-water mark (max sii committed against, plus the
//    witnessing commit's event id). A later failure_announce (s,x') need
//    only compare against the watermark: any folded incarnation x <= x'
//    with watermark sii > s proves an already-committed output depended on
//    a now-dead interval. Closure work is shared across commits via a
//    folded-interval memo, so each interval is walked once per run, not
//    once per commit. A commit may also drain *before* the deliver that
//    creates one of its ancestor intervals (cross-process order is free):
//    the fold then stops at the not-yet-created interval, and resumes from
//    it — under the original commit's witness — the moment its creation
//    event materializes the missing parent edges.
//  * K bound (Theorem 4) and spurious send-side holds: stateless per-event
//    checks.
//  * Incarnation accounting (Theorem 1's bookkeeping): every
//    incarnation_bump must be immediately preceded — among that process's
//    chain-defining events — by a rollback or failure_announce. A trace
//    with a dropped announcement fails here.
//  * Stream sanity: per-process timestamps are non-decreasing and no state
//    interval is created twice.
//
// Ordering contract: per-process event order must match emission order (the
// ring drain and the JSONL file both guarantee this); interleaving *across*
// processes is free — every check above is either process-local or
// commutative in cross-process order, which is exactly what makes the audit
// safe to run against a collector thread's arbitrary drain schedule.
//
// Memory: the parents graph and folded-set grow with the number of state
// intervals in the run; the recorders stay bounded,
// the auditor does not. See DESIGN.md §6.4.
//
// Thread safety: internally mutexed; on_event() is single-caller (the
// collector), report()/ok() may race with it from other threads.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/entry.h"
#include "obs/audit.h"
#include "obs/event.h"

namespace koptlog {

class LiveAudit {
 public:
  explicit LiveAudit(int n);

  /// Fold one event in. Events of the same process must arrive in emission
  /// (seq) order; cross-process interleaving is unconstrained.
  void on_event(const ProtocolEvent& e);

  bool ok() const;
  size_t violation_count() const;
  /// "" while ok(); otherwise "P<pid>#<seq> t=<t>: <what>".
  std::string first_violation() const;
  size_t events_seen() const;

  /// Snapshot of the running verdict (dead_intervals is recomputed on each
  /// call).
  AuditReport report() const;

 private:
  struct Watermark {
    int64_t max_sii = -1;
    std::string witness;  ///< event id of the commit that set max_sii
  };

  void violate(const ProtocolEvent& e, const std::string& what);
  bool is_dead_locked(const IntervalId& iv) const;
  /// Walk the commit closure from `root` on behalf of committed output
  /// `witness`, dead-checking and watermarking every interval not already
  /// folded. `site` is the event being processed (the commit itself, or the
  /// later deliver/bump that materialized a missing edge) — violations are
  /// cited against it.
  void fold_locked(const ProtocolEvent& site, const IntervalId& root,
                   const std::string& witness);
  void watermark_locked(const IntervalId& iv, const std::string& witness);

  mutable std::mutex mu_;
  const int n_;

  // Per-process running state (indexed by pid).
  std::vector<std::vector<Entry>> announced_;
  std::vector<OptEntry> cur_;
  std::vector<std::optional<EventKind>> last_chain_;
  std::vector<SimTime> prev_t_;
  /// pid -> incarnation -> highest sii any committed output depended on.
  std::vector<std::map<Incarnation, Watermark>> watermarks_;

  // Global interval graph, shared across commits.
  std::unordered_map<IntervalId, std::vector<IntervalId>, IntervalIdHash>
      parents_;
  /// Intervals some committed output transitively depends on, mapped to the
  /// witnessing commit's event id (the first commit to reach them).
  std::unordered_map<IntervalId, std::string, IntervalIdHash> folded_;

  // Report counters.
  std::vector<std::string> violations_;
  size_t events_ = 0;
  size_t commits_checked_ = 0;
  size_t releases_checked_ = 0;
  size_t announcements_ = 0;
  size_t rollbacks_ = 0;
  uint64_t dropped_events_ = 0;
  std::set<MsgId> distinct_outputs_;
};

/// The stable streaming event id: "P<pid>#<seq>".
std::string format_live_event_id(const ProtocolEvent& e);

}  // namespace koptlog
