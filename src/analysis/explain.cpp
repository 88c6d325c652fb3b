#include "analysis/explain.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/ids.h"

namespace koptlog::analysis {

namespace {

std::string ref(const CausalGraph& g, int ev) {
  std::string out = "[";
  out += format_event_ref(g.trace(), static_cast<size_t>(ev));
  out += ']';
  return out;
}

std::string n_entries(int n) {
  std::ostringstream os;
  os << n << (n == 1 ? " live entry" : " live entries");
  return os.str();
}

/// Which stability source made (j, e) NULLable for `owner`? Corollary 1
/// (failure/rollback announcement), Corollary 2 (checkpoint), or plain
/// Theorem-2 log flush + logging-progress notification. Returns the
/// one-line attribution; `ev` gets the supporting event index when one
/// exists in the trace.
std::string nulling_source(const CausalGraph& g, ProcessId owner, ProcessId j,
                           const Entry& e, int& ev) {
  ev = -1;
  const Trace& tr = g.trace();
  for (int idx : g.announce_events()) {
    const ProtocolEvent& a = tr.events[static_cast<size_t>(idx)];
    if (a.pid == j && a.ended.inc == e.inc && a.ended.sii >= e.sii) {
      ev = idx;
      return "announcement that incarnation " + std::to_string(e.inc) +
             " of P" + std::to_string(j) + " ended at " + a.ended.str() +
             " implies stability up to its end (Corollary 1)";
    }
  }
  for (int idx : g.checkpoint_events()) {
    const ProtocolEvent& c = tr.events[static_cast<size_t>(idx)];
    if (c.pid == j && c.at.inc == e.inc && c.at.sii >= e.sii) {
      ev = idx;
      return "checkpoint of P" + std::to_string(j) + " at " + c.at.str() +
             " covers it (Corollary 2)";
    }
  }
  std::string base =
      j == owner ? "own interval logged (sender-local log flush, Theorem 2)"
                 : "log flush at P" + std::to_string(j) +
                       " + logging-progress notification (Theorem 2)";
  if (auto t = g.covered_at(owner, j, e, 0)) {
    base += "; P" + std::to_string(owner) + " observably knew by t=" +
            std::to_string(*t);
  }
  return base;
}

/// Per-process lexicographic max over the cross-process intervals in the
/// closure of `root` — the dependency set the commit had to wait on when
/// the trace carries no send-time vector for the output.
std::map<ProcessId, Entry> closure_deps(const CausalGraph& g,
                                        const IntervalId& root) {
  std::map<ProcessId, Entry> deps;
  for (const IntervalId& iv : g.closure(root)) {
    if (iv.pid < 0) continue;
    auto [it, fresh] = deps.try_emplace(iv.pid, iv.entry());
    if (!fresh && it->second < iv.entry()) it->second = iv.entry();
  }
  return deps;
}

void print_closure(const CausalGraph& g, const IntervalId& root,
                   std::ostream& os) {
  std::vector<IntervalId> cl = g.closure(root);
  std::sort(cl.begin(), cl.end());
  os << "commit closure (" << cl.size() << " intervals):\n";
  for (const IntervalId& iv : cl) {
    os << "  " << iv.str();
    const IntervalNode* node = g.interval(iv);
    if (node == nullptr) {
      os << "  (pre-trace)";
    } else if (node->via_msg) {
      os << "  started by delivery of " << format_msg_id(*node->via_msg)
         << " " << ref(g, node->created_by);
    } else {
      os << "  " << ref(g, node->created_by);
    }
    os << '\n';
  }
}

}  // namespace

bool explain_commit(const CausalGraph& g, const MsgId& output,
                    std::ostream& os) {
  auto commit = g.commit_of(output);
  if (!commit) return false;
  const ProtocolEvent& e =
      g.trace().events[static_cast<size_t>(*commit)];
  os << "output " << format_msg_id(output) << " committed by P" << e.pid
     << " at t=" << e.t << " from interval " << e.ref.str() << "  "
     << ref(g, *commit) << '\n';
  os << "vector at commit: "
     << (e.tdv.non_null_count() == 0
             ? "all NULL — every dependency stable (outputs are 0-optimistic)"
             : e.tdv.str())
     << '\n';

  // Prefer the recorded send-time vector; outputs recorded only at commit
  // fall back to the dependency set implied by the interval closure.
  DepVector at_emit;
  bool from_send = false;
  for (int ep_idx : g.episodes_of(output)) {
    const MsgEpisode& ep = g.episodes()[static_cast<size_t>(ep_idx)];
    if (ep.send_ev >= 0) {
      at_emit = g.trace().events[static_cast<size_t>(ep.send_ev)].tdv;
      from_send = true;
    }
  }
  os << "dependencies at emission"
     << (from_send ? " (recorded send vector):" : " (from closure):") << '\n';
  int listed = 0;
  auto explain_entry = [&](ProcessId j, const Entry& dep) {
    int src_ev = -1;
    std::string why = nulling_source(g, e.pid, j, dep, src_ev);
    os << "  P" << j << ' ' << dep.str() << ": " << why;
    if (src_ev >= 0) os << "  " << ref(g, src_ev);
    os << '\n';
    ++listed;
  };
  if (from_send) {
    for (ProcessId j = 0; j < at_emit.size(); ++j) {
      if (at_emit.at(j)) explain_entry(j, *at_emit.at(j));
    }
  } else {
    for (const auto& [j, dep] : closure_deps(g, e.ref)) explain_entry(j, dep);
  }
  if (listed == 0) os << "  (none)\n";
  print_closure(g, e.ref, os);
  return true;
}

bool explain_hold(const CausalGraph& g, const MsgId& msg, std::ostream& os) {
  std::vector<int> eps = g.episodes_of(msg);
  if (eps.empty()) return false;
  const Trace& tr = g.trace();
  os << "message " << format_msg_id(msg) << " — " << eps.size()
     << (eps.size() == 1 ? " send-buffer episode" : " send-buffer episodes")
     << '\n';
  int no = 0;
  for (int idx : eps) {
    const MsgEpisode& ep = g.episodes()[static_cast<size_t>(idx)];
    os << "episode " << ++no << ":\n";
    const ProtocolEvent* send = nullptr;
    if (ep.send_ev >= 0) {
      send = &tr.events[static_cast<size_t>(ep.send_ev)];
      os << "  sent by P" << ep.sender << " to P" << send->peer << " at t="
         << send->t << " from " << send->ref.str() << "  "
         << ref(g, ep.send_ev) << '\n';
      os << "  K limit " << send->k_limit << "; "
         << n_entries(send->tdv.non_null_count()) << " at send:\n";
      for (ProcessId j = 0; j < send->tdv.size(); ++j) {
        if (send->tdv.at(j)) {
          os << "    P" << j << ' ' << send->tdv.at(j)->str() << '\n';
        }
      }
    }
    if (ep.hold_ev >= 0) {
      const ProtocolEvent& h = tr.events[static_cast<size_t>(ep.hold_ev)];
      os << "  parked: " << n_entries(h.k_reached) << " > K=" << h.k_limit
         << "  " << ref(g, ep.hold_ev) << '\n';
    }
    switch (ep.end) {
      case MsgEpisode::End::kReleased: {
        const ProtocolEvent& r =
            tr.events[static_cast<size_t>(ep.release_ev)];
        if (send != nullptr) {
          int nulled = 0;
          for (ProcessId j = 0; j < send->tdv.size(); ++j) {
            if (!send->tdv.at(j) || (j < r.tdv.size() && r.tdv.at(j)))
              continue;
            int src_ev = -1;
            std::string why =
                nulling_source(g, ep.sender, j, *send->tdv.at(j), src_ev);
            if (nulled++ == 0) os << "  nulled while parked:\n";
            os << "    P" << j << ' ' << send->tdv.at(j)->str() << ": "
               << why;
            if (src_ev >= 0) os << "  " << ref(g, src_ev);
            os << '\n';
          }
        }
        os << "  released at t=" << r.t << " with " << n_entries(r.k_reached)
           << " <= K=" << r.k_limit << "  " << ref(g, ep.release_ev) << '\n';
        break;
      }
      case MsgEpisode::End::kCrashWiped:
        os << "  never released: sender failed at t=" << ep.doomed_at
           << "; the volatile send buffer was wiped\n";
        break;
      case MsgEpisode::End::kDiscarded:
        os << "  never released: a send-vector dependency was announced "
              "dead (orphan discard), doomed by t="
           << ep.doomed_at << '\n';
        break;
      case MsgEpisode::End::kUnreleased:
        os << "  still parked when the trace ends\n";
        break;
    }
  }
  for (int d : g.recv_holds_of(msg)) {
    const ProtocolEvent& h = tr.events[static_cast<size_t>(d)];
    os << "receive-side hold at P" << h.pid
       << " (out-of-order arrival)  " << ref(g, d) << '\n';
  }
  return true;
}

bool explain_orphan(const CausalGraph& g, const IntervalId& iv,
                    std::ostream& os) {
  const bool known = g.interval(iv) != nullptr;
  if (!known && !g.is_dead(iv)) return false;
  std::vector<IntervalId> path = g.path_to_dead(iv);
  if (path.empty()) {
    os << "interval " << iv.str()
       << " is not an orphan: no dead interval in its recorded closure "
          "(Theorem 1)\n";
    return true;
  }
  const IntervalId& dead = path.back();
  os << "interval " << iv.str() << " is an orphan (Theorem 1)\n";
  if (path.size() == 1) {
    os << "  it was announced dead directly\n";
  } else {
    os << "  dependency path to a dead interval:\n";
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      const IntervalNode* node = g.interval(path[i]);
      os << "    " << path[i].str() << " <- " << path[i + 1].str();
      if (node != nullptr && node->via_msg && node->msg_parent >= 0 &&
          path[i + 1] == node->parents[static_cast<size_t>(node->msg_parent)]) {
        os << "  (delivery of " << format_msg_id(*node->via_msg) << ' '
           << ref(g, node->created_by) << ')';
      } else {
        os << "  (same-process predecessor)";
      }
      os << '\n';
    }
  }
  if (auto k = g.killer_of(dead)) {
    const ProtocolEvent& a = g.trace().events[static_cast<size_t>(*k)];
    os << "  killed by announcement of P" << a.pid << ": incarnation "
       << a.ended.inc << " ended at " << a.ended.str()
       << (a.from_failure ? " (failure)" : " (rollback)") << ", and "
       << dead.str() << " lies beyond it  " << ref(g, *k) << '\n';
  }
  for (int idx : g.rollback_events()) {
    const ProtocolEvent& r = g.trace().events[static_cast<size_t>(idx)];
    if (r.pid == iv.pid && r.ended.inc == iv.inc && iv.sii > r.ended.sii) {
      os << "  rolled back: P" << r.pid << " restored to " << r.ended.str()
         << ", undoing " << r.undone << " log records  " << ref(g, idx)
         << '\n';
    }
  }
  return true;
}

}  // namespace koptlog::analysis
