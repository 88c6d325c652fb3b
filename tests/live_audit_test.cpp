// LiveAudit — the one trace auditor (audit_trace replays it) must agree with
// a reference orphan check on real multi-failure runs (in merged order AND
// under a collector-style cross-process interleaving), and must catch hand-injected orphan commits
// in both temporal directions: announce-then-commit (immediate dead check)
// and commit-then-announce (the watermark direction, where the output
// escaped before the failure was announced). Violations cite the offending
// event's stable "P<pid>#<seq>" id.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/workloads.h"
#include "core/cluster.h"
#include "obs/audit.h"
#include "obs/live_audit.h"

namespace koptlog {
namespace {

std::vector<ProtocolEvent> record_multi_failure_events() {
  ClusterConfig cfg;
  cfg.n = 5;
  cfg.seed = 4242;
  cfg.protocol.k = 2;
  cfg.enable_oracle = false;
  cfg.record_events = true;
  Cluster cluster(cfg, make_uniform_app({.output_every = 4}));
  cluster.start();
  inject_uniform_load(cluster, 150, 1'000, 600'000, 5, 17);
  cluster.fail_at(200'000, 1);
  cluster.fail_at(380'000, 3);
  cluster.run_for(2'000'000);
  cluster.drain();
  EXPECT_NE(cluster.recording(), nullptr);
  return cluster.recording()->merged();
}

TEST(LiveAuditTest, CrossProcessInterleavingIsImmaterial) {
  // The collector drains per-process rings round-robin, so the auditor sees
  // per-process streams in order but an arbitrary interleave across
  // processes — including commits draining before the delivers that created
  // their ancestor intervals. Feed whole processes back to back (the most
  // skewed interleave possible) and expect the same green verdict.
  std::vector<ProtocolEvent> events = record_multi_failure_events();
  std::map<ProcessId, std::vector<ProtocolEvent>> by_pid;
  for (const ProtocolEvent& e : events) by_pid[e.pid].push_back(e);

  LiveAudit live(5);
  for (auto it = by_pid.rbegin(); it != by_pid.rend(); ++it) {
    for (const ProtocolEvent& e : it->second) live.on_event(e);
  }
  EXPECT_TRUE(live.ok()) << live.first_violation();
  AuditReport rep = live.report();
  EXPECT_EQ(rep.events, events.size());
  EXPECT_GT(rep.commits_checked, 0u);
}

// -- Hand-crafted violation vectors ----------------------------------------

ProtocolEvent deliver(ProcessId pid, uint64_t seq, SimTime t, Entry at,
                      IntervalId ref) {
  ProtocolEvent e;
  e.kind = EventKind::kDeliver;
  e.t = t;
  e.pid = pid;
  e.seq = seq;
  e.at = at;
  e.msg = MsgId{ref.pid, 1};
  e.peer = ref.pid;
  e.ref = ref;
  return e;
}

ProtocolEvent announce(ProcessId pid, uint64_t seq, SimTime t, Entry ended) {
  ProtocolEvent e;
  e.kind = EventKind::kFailureAnnounce;
  e.t = t;
  e.pid = pid;
  e.seq = seq;
  e.at = ended;
  e.ended = ended;
  e.from_failure = true;
  return e;
}

ProtocolEvent commit(ProcessId pid, uint64_t seq, SimTime t, IntervalId ref,
                     DepVector tdv) {
  ProtocolEvent e;
  e.kind = EventKind::kOutputCommit;
  e.t = t;
  e.pid = pid;
  e.seq = seq;
  e.at = Entry{ref.inc, ref.sii};
  e.msg = MsgId{pid, 1};
  e.ref = ref;
  e.tdv = std::move(tdv);
  return e;
}

// -- Reference for the orphan check -----------------------------------------

// Test-only reference kept from the retired batch audit, because its
// algorithm differs from LiveAudit's: it first collects every announcement
// in the trace, then walks each commit's dependency closure over the whole
// reconstructed interval graph. LiveAudit instead checks a commit against
// the announcements seen so far and watermarks it against those still to
// come. (The per-event checks were line-for-line the same in both audits;
// the hand-written vectors below and in audit_test.cpp pin those.)
struct ReferenceVerdict {
  bool orphan_free = true;
  size_t intervals = 0;
  size_t dead_intervals = 0;
};

ReferenceVerdict reference_orphan_audit(const Trace& trace) {
  const size_t n = static_cast<size_t>(trace.n);
  std::vector<std::vector<Entry>> announced(n);
  for (const ProtocolEvent& e : trace.events) {
    if (e.kind == EventKind::kFailureAnnounce)
      announced[static_cast<size_t>(e.pid)].push_back(e.ended);
  }
  // The paper's orphan predicate: an interval is dead iff an announcement
  // of its process ended an incarnation at or after its own, below its sii.
  auto is_dead = [&](const IntervalId& iv) {
    if (iv.pid < 0 || static_cast<size_t>(iv.pid) >= n) return false;
    for (const Entry& a : announced[static_cast<size_t>(iv.pid)]) {
      if (a.inc >= iv.inc && iv.sii > a.sii) return true;
    }
    return false;
  };

  // Interval graph: a deliver or bump creates (pid, at), whose parents are
  // the process's previous position and, for a deliver, the sender's.
  std::unordered_map<IntervalId, std::vector<IntervalId>, IntervalIdHash>
      parents;
  std::vector<OptEntry> cur(n);
  std::vector<const ProtocolEvent*> commits;
  for (const ProtocolEvent& e : trace.events) {
    const size_t p = static_cast<size_t>(e.pid);
    switch (e.kind) {
      case EventKind::kDeliver:
      case EventKind::kIncarnationBump: {
        std::vector<IntervalId> ps;
        if (cur[p]) ps.push_back(IntervalId{e.pid, cur[p]->inc, cur[p]->sii});
        if (e.kind == EventKind::kDeliver && e.ref.pid != kEnvironment)
          ps.push_back(e.ref);
        parents.emplace(IntervalId{e.pid, e.at.inc, e.at.sii}, std::move(ps));
        cur[p] = e.at;
        break;
      }
      case EventKind::kRollback:
      case EventKind::kFailureAnnounce:
        cur[p] = e.at;
        break;
      case EventKind::kOutputCommit:
        commits.push_back(&e);
        break;
      default:
        break;
    }
  }

  ReferenceVerdict v;
  v.intervals = parents.size();
  for (const auto& [iv, ps] : parents) v.dead_intervals += is_dead(iv);
  // A closure already walked clean need not be walked again; a dirty one
  // has settled the verdict.
  std::set<IntervalId> visited;
  for (const ProtocolEvent* c : commits) {
    c->tdv.for_each([&](ProcessId j, const Entry& d) {
      if (is_dead(IntervalId{j, d.inc, d.sii})) v.orphan_free = false;
    });
    std::vector<IntervalId> stack{c->ref};
    while (!stack.empty()) {
      IntervalId iv = stack.back();
      stack.pop_back();
      if (!visited.insert(iv).second) continue;
      if (is_dead(iv)) v.orphan_free = false;
      auto pit = parents.find(iv);
      if (pit != parents.end())
        stack.insert(stack.end(), pit->second.begin(), pit->second.end());
    }
  }
  return v;
}

// Appends to `events` an orphan commit only the closure can convict: the
// highest never-failed process delivers from a dead interval of the real
// run, then commits from the new interval with an empty vector. In the
// skewed order its stream is fed first, before the dead interval exists or
// is announced, so LiveAudit must convict it through the deferred fold and
// the watermark.
void inject_orphan_commit(const Trace& trace,
                          std::vector<ProtocolEvent>& events) {
  std::map<ProcessId, std::vector<Entry>> ends;
  for (const ProtocolEvent& e : trace.events) {
    if (e.kind == EventKind::kFailureAnnounce) ends[e.pid].push_back(e.ended);
  }
  std::optional<IntervalId> dead;
  for (const ProtocolEvent& e : trace.events) {
    if (e.kind != EventKind::kDeliver || ends.count(e.pid) == 0) continue;
    for (const Entry& a : ends[e.pid]) {
      if (a.inc >= e.at.inc && e.at.sii > a.sii)
        dead = IntervalId{e.pid, e.at.inc, e.at.sii};
    }
  }
  ASSERT_TRUE(dead.has_value());
  ProcessId q = trace.n - 1;
  while (ends.count(q) != 0) --q;
  ASSERT_GT(q, dead->pid);
  const ProtocolEvent* last = nullptr;
  for (const ProtocolEvent& e : trace.events) {
    if (e.pid == q) last = &e;
  }
  ASSERT_NE(last, nullptr);
  const Entry at{last->at.inc, 1'000'000};
  events.push_back(deliver(q, last->seq + 1, last->t, at, *dead));
  events.push_back(commit(q, last->seq + 2, last->t, IntervalId{q, at.inc, at.sii},
                          DepVector(trace.n)));
}

TEST(LiveAuditTest, AgreesWithBatchAuditOnMultiFailureRun) {
  std::vector<ProtocolEvent> events = record_multi_failure_events();
  ASSERT_GT(events.size(), 100u);
  Trace merged;
  merged.n = 5;
  merged.events = events;

  // The retired batch audit's report for this run, pinned.
  AuditReport rep = audit_trace(merged);
  EXPECT_EQ(rep.summary(),
            "audit OK: events=7538 intervals=1639 dead=3 announcements=2 "
            "rollbacks=4 releases=1643 commits=437 outputs=399");

  // Merged order, the most skewed per-process order (whole processes back to
  // back, highest pid first), and each with an orphan commit appended to
  // its process's stream: the survivor must agree with the reference.
  for (bool skewed : {false, true}) {
    for (bool orphan : {false, true}) {
      std::map<ProcessId, std::vector<ProtocolEvent>> by_pid;
      for (const ProtocolEvent& e : events) by_pid[e.pid].push_back(e);
      Trace trace;
      trace.n = 5;
      if (skewed) {
        if (orphan) {
          std::vector<ProtocolEvent> extra;
          inject_orphan_commit(merged, extra);
          for (ProtocolEvent& e : extra) by_pid[e.pid].push_back(e);
        }
        for (auto it = by_pid.rbegin(); it != by_pid.rend(); ++it)
          trace.events.insert(trace.events.end(), it->second.begin(),
                              it->second.end());
      } else {
        trace.events = events;
        if (orphan) inject_orphan_commit(merged, trace.events);
      }
      SCOPED_TRACE(std::string(skewed ? "skewed" : "merged") +
                   (orphan ? " + orphan commit" : ""));
      ReferenceVerdict ref = reference_orphan_audit(trace);
      AuditReport live = audit_trace(trace);
      EXPECT_EQ(live.ok(), ref.orphan_free) << live.summary();
      EXPECT_EQ(ref.orphan_free, !orphan);
      EXPECT_EQ(live.intervals, ref.intervals);
      EXPECT_EQ(live.dead_intervals, ref.dead_intervals);
      EXPECT_EQ(live.events, trace.events.size());
      EXPECT_GT(live.dead_intervals, 0u);
    }
  }
}

TEST(LiveAuditTest, AnnounceThenCommitIsCaughtImmediately) {
  LiveAudit live(2);
  live.on_event(deliver(0, 0, 10, Entry{0, 5}, IntervalId{kEnvironment, 0, 0}));
  live.on_event(announce(0, 1, 20, Entry{0, 3}));  // sii 4,5 now dead
  ASSERT_TRUE(live.ok());
  DepVector tdv(2);
  tdv.set(0, Entry{0, 5});  // the dead interval
  live.on_event(commit(1, 0, 30, IntervalId{1, 0, 1}, tdv));
  EXPECT_FALSE(live.ok());
  EXPECT_EQ(live.violation_count(), 1u);
  // Cited against the commit event's stable id.
  EXPECT_EQ(live.first_violation().substr(0, 5), "P1#0 ")
      << live.first_violation();
  EXPECT_NE(live.first_violation().find("dead dependency"), std::string::npos);
}

TEST(LiveAuditTest, CommitThenAnnounceIsCaughtByWatermark) {
  // The dangerous direction: the output escapes first, the failure that
  // orphans it is announced later. The watermark must convict the
  // announcement and cite the already-committed output.
  LiveAudit live(2);
  live.on_event(deliver(0, 0, 10, Entry{0, 5}, IntervalId{kEnvironment, 0, 0}));
  DepVector tdv(2);
  tdv.set(0, Entry{0, 5});
  live.on_event(commit(1, 0, 20, IntervalId{1, 0, 1}, tdv));
  ASSERT_TRUE(live.ok());  // nothing announced yet: commit looks fine
  live.on_event(announce(0, 1, 30, Entry{0, 3}));
  EXPECT_FALSE(live.ok());
  // The violation fires at the announcement but names the commit (P1#0).
  EXPECT_NE(live.first_violation().find("orphans already-committed"),
            std::string::npos)
      << live.first_violation();
  EXPECT_NE(live.first_violation().find("P1#0"), std::string::npos);
}

TEST(LiveAuditTest, DeferredClosureConvictsLateMaterializedAncestor) {
  // A commit's closure reaches an interval on another process whose
  // creating deliver has not drained yet (cross-process drain order is
  // free). The closure stops at the unknown interval and must resume —
  // under the original commit's witness — when the deliver materializes
  // the parent edge to an interval that is dead.
  LiveAudit live(3);
  // P0 creates (0,5) and dies back to sii 3: (0,5) is dead.
  live.on_event(deliver(0, 0, 10, Entry{0, 5}, IntervalId{kEnvironment, 0, 0}));
  live.on_event(announce(0, 1, 20, Entry{0, 3}));
  // P1's interval (0,2) descends from P2's interval (0,7) — P2's ring has
  // not been drained yet, so (0,7)_2 is an unknown leaf.
  live.on_event(deliver(1, 0, 22, Entry{0, 2}, IntervalId{2, 0, 7}));
  DepVector tdv(3);
  tdv.set(1, Entry{0, 2});
  live.on_event(commit(1, 1, 30, IntervalId{1, 0, 2}, tdv));
  ASSERT_TRUE(live.ok()) << live.first_violation();
  // Now P2's ring drains: (0,7)_2 was created from P0's dead (0,5)_0. The
  // resumed fold must convict the earlier commit by name.
  live.on_event(deliver(2, 0, 25, Entry{0, 7}, IntervalId{0, 0, 5}));
  EXPECT_FALSE(live.ok());
  EXPECT_NE(live.first_violation().find("rolled-back interval (0,5)_0"),
            std::string::npos)
      << live.first_violation();
  EXPECT_NE(live.first_violation().find("commit P1#1"), std::string::npos);
}

TEST(LiveAuditTest, ReleaseOverKBoundIsCaught) {
  LiveAudit live(3);
  ProtocolEvent e;
  e.kind = EventKind::kBufferRelease;
  e.t = 1;
  e.pid = 0;
  e.seq = 0;
  e.at = Entry{0, 1};
  e.msg = MsgId{0, 1};
  e.peer = 1;
  e.ref = IntervalId{0, 0, 1};
  DepVector tdv(3);
  tdv.set(0, Entry{0, 1});
  tdv.set(2, Entry{0, 4});
  e.tdv = tdv;
  e.k_limit = 1;
  e.k_reached = 2;
  live.on_event(e);
  EXPECT_FALSE(live.ok());
  EXPECT_NE(live.first_violation().find("> K=1"), std::string::npos)
      << live.first_violation();

  // Same release is legal under K=2.
  LiveAudit live2(3);
  e.k_limit = 2;
  live2.on_event(e);
  EXPECT_TRUE(live2.ok()) << live2.first_violation();

  // A release whose k_reached disagrees with its own vector is lying.
  LiveAudit live3(3);
  e.k_reached = 1;
  live3.on_event(e);
  EXPECT_FALSE(live3.ok());
}

TEST(LiveAuditTest, UnexplainedIncarnationBumpIsCaught) {
  LiveAudit live(2);
  ProtocolEvent e;
  e.kind = EventKind::kIncarnationBump;
  e.t = 5;
  e.pid = 0;
  e.seq = 0;
  e.at = Entry{1, 1};
  live.on_event(e);
  EXPECT_FALSE(live.ok());
  EXPECT_NE(live.first_violation().find("without a preceding"),
            std::string::npos)
      << live.first_violation();
}

TEST(LiveAuditTest, RecorderDropsAreAccountedNotViolations) {
  LiveAudit live(2);
  ProtocolEvent e;
  e.kind = EventKind::kRecorderDrop;
  e.t = 5;
  e.pid = 0;
  e.seq = 3;
  e.at = Entry{0, 1};
  e.undone = 17;
  live.on_event(e);
  EXPECT_TRUE(live.ok());
  EXPECT_EQ(live.report().dropped_events, 17u);
  EXPECT_NE(live.report().summary().find("dropped=17"), std::string::npos);
}

}  // namespace
}  // namespace koptlog
