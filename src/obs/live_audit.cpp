#include "obs/live_audit.h"

#include <limits>
#include <sstream>

namespace koptlog {

namespace {

constexpr size_t kMaxViolations = 100;

std::string interval_str(const IntervalId& iv) {
  std::ostringstream os;
  os << '(' << iv.inc << ',' << iv.sii << ")_" << iv.pid;
  return os.str();
}

std::string msg_str(const MsgId& id) {
  return std::to_string(id.src) + ":" + std::to_string(id.seq);
}

}  // namespace

std::string format_live_event_id(const ProtocolEvent& e) {
  std::string id = "P";
  id += std::to_string(e.pid);
  id += '#';
  id += std::to_string(e.seq);
  return id;
}

LiveAudit::LiveAudit(int n)
    : n_(n),
      announced_(static_cast<size_t>(n)),
      cur_(static_cast<size_t>(n)),
      last_chain_(static_cast<size_t>(n)),
      prev_t_(static_cast<size_t>(n), std::numeric_limits<SimTime>::min()),
      watermarks_(static_cast<size_t>(n)) {}

void LiveAudit::violate(const ProtocolEvent& e, const std::string& what) {
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(format_live_event_id(e) + " t=" +
                          std::to_string(e.t) + ": " + what);
  } else if (violations_.size() == kMaxViolations) {
    violations_.push_back("... further violations suppressed");
  }
}

bool LiveAudit::is_dead_locked(const IntervalId& iv) const {
  if (iv.pid < 0 || iv.pid >= n_) return false;  // environment
  for (const Entry& a : announced_[static_cast<size_t>(iv.pid)]) {
    if (a.inc >= iv.inc && iv.sii > a.sii) return true;
  }
  return false;
}

void LiveAudit::watermark_locked(const IntervalId& iv,
                                 const std::string& witness) {
  if (iv.pid < 0 || iv.pid >= n_) return;  // environment
  Watermark& wm = watermarks_[static_cast<size_t>(iv.pid)][iv.inc];
  if (iv.sii > wm.max_sii) {
    wm.max_sii = iv.sii;
    wm.witness = witness;
  }
}

void LiveAudit::fold_locked(const ProtocolEvent& site, const IntervalId& root,
                            const std::string& witness) {
  // Iterative DFS over intervals no earlier commit has folded. Every newly
  // visited interval is dead-checked against the announcements so far and
  // watermarked against the announcements still to come; the folded memo
  // makes total closure work linear in intervals, not commits x intervals.
  std::vector<IntervalId> stack{root};
  while (!stack.empty()) {
    IntervalId iv = stack.back();
    stack.pop_back();
    if (iv.pid == kEnvironment) continue;
    if (!folded_.emplace(iv, witness).second) continue;
    if (is_dead_locked(iv)) {
      violate(site, "commit " + witness +
                        " depends on rolled-back interval " + interval_str(iv));
    }
    watermark_locked(iv, witness);
    auto pit = parents_.find(iv);
    if (pit != parents_.end()) {
      for (const IntervalId& parent : pit->second) stack.push_back(parent);
    }
  }
}

void LiveAudit::on_event(const ProtocolEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  ++events_;
  if (e.pid < 0 || e.pid >= n_) return;  // not auditable; parser rejects these
  const size_t p = static_cast<size_t>(e.pid);
  if (e.t < prev_t_[p]) {
    violate(e, "per-process timestamps regressed (" +
                   std::string(event_kind_name(e.kind)) + ")");
  }
  prev_t_[p] = e.t;

  switch (e.kind) {
    case EventKind::kDeliver: {
      IntervalId iv{e.pid, e.at.inc, e.at.sii};
      if (parents_.count(iv) != 0) {
        violate(e, "state interval " + interval_str(iv) + " created twice");
        break;
      }
      std::vector<IntervalId> ps;
      if (cur_[p]) ps.push_back(IntervalId{e.pid, cur_[p]->inc, cur_[p]->sii});
      if (e.ref.pid != kEnvironment) ps.push_back(e.ref);
      // If a commit already folded this interval as a leaf (its creation
      // drained after the commit), resume the fold through the parent edges
      // that just materialized.
      auto fit = folded_.find(iv);
      if (fit != folded_.end()) {
        const std::string witness = fit->second;
        for (const IntervalId& parent : ps) fold_locked(e, parent, witness);
      }
      parents_.emplace(iv, std::move(ps));
      cur_[p] = e.at;
      last_chain_[p] = e.kind;
      break;
    }
    case EventKind::kIncarnationBump: {
      // A bump with no announced (or at least locally recorded) cause means
      // peers could never have orphan-detected against the lost intervals.
      if (last_chain_[p] != EventKind::kRollback &&
          last_chain_[p] != EventKind::kFailureAnnounce) {
        violate(e, "incarnation bump to (" + std::to_string(e.at.inc) + "," +
                       std::to_string(e.at.sii) +
                       ") without a preceding rollback/failure announcement");
      }
      IntervalId iv{e.pid, e.at.inc, e.at.sii};
      if (parents_.count(iv) != 0) {
        violate(e, "state interval " + interval_str(iv) + " created twice");
      } else {
        std::vector<IntervalId> ps;
        if (cur_[p])
          ps.push_back(IntervalId{e.pid, cur_[p]->inc, cur_[p]->sii});
        auto fit = folded_.find(iv);
        if (fit != folded_.end()) {
          const std::string witness = fit->second;
          for (const IntervalId& parent : ps) fold_locked(e, parent, witness);
        }
        parents_.emplace(iv, std::move(ps));
      }
      cur_[p] = e.at;
      last_chain_[p] = e.kind;
      break;
    }
    case EventKind::kRollback:
      ++rollbacks_;
      cur_[p] = e.at;  // restored position
      last_chain_[p] = e.kind;
      break;
    case EventKind::kFailureAnnounce: {
      ++announcements_;
      announced_[p].push_back(e.ended);
      cur_[p] = e.at;
      last_chain_[p] = e.kind;
      // The commit-then-announce direction: any incarnation x <= x' whose
      // committed watermark exceeds s is a committed output that this
      // announcement (s, x') just orphaned. The watermark's witness is the
      // earliest commit that depended on the maximal interval, so the
      // citation names a provably orphaned output.
      for (const auto& [inc, wm] : watermarks_[p]) {
        if (inc <= e.ended.inc && wm.max_sii > e.ended.sii) {
          violate(e, "failure announcement (" + std::to_string(e.ended.inc) +
                         "," + std::to_string(e.ended.sii) + ") of P" +
                         std::to_string(e.pid) +
                         " orphans already-committed output: commit " +
                         wm.witness + " depended on " +
                         interval_str(IntervalId{e.pid, inc, wm.max_sii}));
          break;
        }
      }
      break;
    }
    case EventKind::kBufferRelease: {
      ++releases_checked_;
      // Theorem 4: at most K processes' failures can revoke a released
      // message.
      if (e.k_limit >= 0 && e.k_reached > e.k_limit) {
        violate(e, "release of msg " + msg_str(e.msg) + " with " +
                       std::to_string(e.k_reached) +
                       " live entries > K=" + std::to_string(e.k_limit));
      }
      if (e.k_reached != e.tdv.non_null_count()) {
        violate(e, "release k_reached=" + std::to_string(e.k_reached) +
                       " disagrees with recorded vector (" +
                       std::to_string(e.tdv.non_null_count()) +
                       " non-NULL entries)");
      }
      break;
    }
    case EventKind::kBufferHold:
      // A send-side hold is only justified while over the bound.
      if (!e.recv_side && e.k_limit >= 0 && e.k_reached >= 0 &&
          e.k_reached <= e.k_limit) {
        violate(e, "send buffer held msg " + msg_str(e.msg) + " at " +
                       std::to_string(e.k_reached) +
                       " live entries, within K=" + std::to_string(e.k_limit));
      }
      break;
    case EventKind::kOutputCommit: {
      ++commits_checked_;
      distinct_outputs_.insert(e.msg);
      // Announce-then-commit direction: the recorded vector against the
      // announcements seen so far...
      e.tdv.for_each([&](ProcessId j, const Entry& d) {
        IntervalId iv{j, d.inc, d.sii};
        if (is_dead_locked(iv)) {
          violate(e, "output " + msg_str(e.msg) +
                         " committed with dead dependency " + interval_str(iv));
        }
        // ...and the watermark so a later announcement can convict this
        // commit even if iv never appears in the reconstructed graph.
        watermark_locked(iv, format_live_event_id(e));
      });
      // Transitive closure from the committing interval, shared via folded_.
      fold_locked(e, e.ref, format_live_event_id(e));
      break;
    }
    case EventKind::kRecorderDrop:
      dropped_events_ += static_cast<uint64_t>(e.undone);
      break;
    case EventKind::kSend:
    case EventKind::kCheckpoint:
    case EventKind::kRetransmit:
    case EventKind::kStorageFlush:
    case EventKind::kStorageRecover:
    case EventKind::kProgressNotify:
      break;
  }
}

bool LiveAudit::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.empty();
}

size_t LiveAudit::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.size();
}

std::string LiveAudit::first_violation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.empty() ? std::string() : violations_.front();
}

size_t LiveAudit::events_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

AuditReport LiveAudit::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  AuditReport rep;
  rep.violations = violations_;
  rep.events = events_;
  rep.intervals = parents_.size();
  rep.commits_checked = commits_checked_;
  rep.distinct_outputs = distinct_outputs_.size();
  rep.releases_checked = releases_checked_;
  rep.announcements = announcements_;
  rep.rollbacks = rollbacks_;
  rep.dropped_events = dropped_events_;
  for (const auto& [iv, ps] : parents_) {
    if (is_dead_locked(iv)) ++rep.dead_intervals;
  }
  return rep;
}

}  // namespace koptlog
