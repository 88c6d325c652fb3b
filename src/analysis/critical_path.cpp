#include "analysis/critical_path.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "obs/ids.h"

namespace koptlog::analysis {

namespace {

bool killed_by(const ProtocolEvent& announce, const IntervalId& iv) {
  return announce.pid == iv.pid && announce.ended.inc >= iv.inc &&
         iv.sii > announce.ended.sii;
}

/// Longest path (root..dead) among the intervals `rollback` undid whose
/// dead endpoint this announcement is responsible for. Empty when the
/// rollback was forced by some other announcement.
std::vector<IntervalId> chain_for_rollback(const CausalGraph& g,
                                           const ProtocolEvent& announce,
                                           const ProtocolEvent& rollback) {
  std::vector<IntervalId> best;
  for (const auto& [iv, node] : g.intervals()) {
    if (iv.pid != rollback.pid || iv.inc != rollback.ended.inc ||
        iv.sii <= rollback.ended.sii)
      continue;
    std::vector<IntervalId> path = g.path_to_dead(iv);
    if (path.empty() || !killed_by(announce, path.back())) continue;
    if (path.size() > best.size() ||
        (path.size() == best.size() && !best.empty() && path[0] < best[0]))
      best = std::move(path);
  }
  return best;
}

}  // namespace

std::vector<FailureImpact> compute_critical_paths(const CausalGraph& g) {
  const Trace& tr = g.trace();
  std::vector<FailureImpact> impacts;
  for (int a_idx : g.announce_events()) {
    const ProtocolEvent& a = tr.events[static_cast<size_t>(a_idx)];
    FailureImpact im;
    im.announce_ev = a_idx;
    im.pid = a.pid;
    im.ended = a.ended;
    im.t = a.t;
    im.from_failure = a.from_failure;
    im.settled_at = a.t;

    std::vector<IntervalId> best_chain;
    int best_terminal = -1;
    SimTime best_end = a.t;
    for (int r_idx : g.rollback_events()) {
      const ProtocolEvent& r = tr.events[static_cast<size_t>(r_idx)];
      if (r.t < a.t || r.pid == a.pid) continue;
      std::vector<IntervalId> chain = chain_for_rollback(g, a, r);
      if (chain.empty()) continue;
      im.forced_rollbacks.push_back(r_idx);
      im.settled_at = std::max(im.settled_at, r.t);
      // Terminal = latest forced event; ties go to the longer chain.
      if (best_terminal < 0 || r.t > best_end ||
          (r.t == best_end && chain.size() > best_chain.size())) {
        best_chain = std::move(chain);
        best_terminal = r_idx;
        best_end = r.t;
      }
    }
    for (int rt_idx : g.retransmit_events()) {
      const ProtocolEvent& rt = tr.events[static_cast<size_t>(rt_idx)];
      if (rt.peer != a.pid || rt.t < a.t) continue;
      // Attribute to the latest announcement by this process not after the
      // retransmit: skip if a later qualifying announcement exists.
      bool superseded = false;
      for (int other : g.announce_events()) {
        if (other == a_idx) continue;
        const ProtocolEvent& o = tr.events[static_cast<size_t>(other)];
        if (o.pid == a.pid && o.t <= rt.t && o.t >= a.t && other > a_idx)
          superseded = true;
      }
      if (superseded) continue;
      im.forced_retransmits.push_back(rt_idx);
      im.settled_at = std::max(im.settled_at, rt.t);
      if (best_terminal < 0 || rt.t > best_end) {
        best_chain.clear();
        best_terminal = rt_idx;
        best_end = rt.t;
      }
    }

    im.terminal_ev = best_terminal;
    // path_to_dead runs root -> dead; the report reads forward in time:
    // dead interval first, terminal undone interval last.
    std::reverse(best_chain.begin(), best_chain.end());
    for (const IntervalId& iv : best_chain) {
      const IntervalNode* node = g.interval(iv);
      PathHop hop;
      hop.iv = iv;
      hop.t = node != nullptr ? node->t : a.t;
      if (node != nullptr) hop.via = node->via_msg;
      im.critical.push_back(hop);
    }
    impacts.push_back(std::move(im));
  }
  return impacts;
}

void print_critical_paths(const CausalGraph& g,
                          const std::vector<FailureImpact>& impacts,
                          std::ostream& os) {
  if (impacts.empty()) {
    os << "no failure or rollback announcements in this trace\n";
    return;
  }
  for (const FailureImpact& im : impacts) {
    os << (im.from_failure ? "failure" : "rollback") << ": P" << im.pid
       << " incarnation " << im.ended.inc << " ended at " << im.ended.str()
       << " (t=" << im.t << ")  ["
       << format_event_ref(g.trace(), static_cast<size_t>(im.announce_ev))
       << "]\n";
    os << "  forced " << im.forced_rollbacks.size() << " rollback(s), "
       << im.forced_retransmits.size() << " retransmit(s); settled at t="
       << im.settled_at << " (+" << (im.settled_at - im.t) << " us)\n";
    if (im.critical.empty()) {
      os << "  critical path: none (no dependency chain recorded)\n";
      continue;
    }
    os << "  critical path (" << im.critical.size() << " hops):\n";
    SimTime prev = im.t;
    for (size_t i = 0; i < im.critical.size(); ++i) {
      const PathHop& hop = im.critical[i];
      os << "    " << (i == 0 ? "dead " : "  -> ") << hop.iv.str();
      if (i != 0 && hop.via) {
        os << " via delivery of " << format_msg_id(*hop.via);
      }
      os << "  t=" << hop.t << " (+" << (hop.t - prev) << ")\n";
      prev = hop.t;
    }
    if (im.terminal_ev >= 0) {
      const ProtocolEvent& term =
          g.trace().events[static_cast<size_t>(im.terminal_ev)];
      os << "    end: "
         << (term.kind == EventKind::kRollback ? "rollback at P"
                                               : "retransmit by P")
         << term.pid;
      if (term.kind == EventKind::kRollback) {
        os << " to " << term.ended.str() << ", undone " << term.undone;
      } else {
        os << " of " << format_msg_id(term.msg);
      }
      os << "  t=" << term.t << " (+" << (term.t - prev) << ")  ["
         << format_event_ref(g.trace(), static_cast<size_t>(im.terminal_ev))
         << "]\n";
    }
  }
}

bool write_critical_path_perfetto(const std::vector<FailureImpact>& impacts,
                                  const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };
  emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":9000,\"tid\":0,"
       "\"args\":{\"name\":\"recovery critical paths\"}}");
  int tid = 0;
  for (const FailureImpact& im : impacts) {
    ++tid;
    emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":9000,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"name\":\"" +
         json_escape((im.from_failure ? "failure P" : "rollback P") +
                     std::to_string(im.pid) + " " + im.ended.str()) +
         "\"}}");
    auto slice = [&](const std::string& name, SimTime t, SimTime end,
                     const std::string& args) {
      emit("{\"ph\":\"X\",\"pid\":9000,\"tid\":" + std::to_string(tid) +
           ",\"ts\":" + std::to_string(t) + ",\"dur\":" +
           std::to_string(end > t ? end - t : 1) + ",\"name\":\"" +
           json_escape(name) + "\",\"args\":{" + args + "}}");
    };
    slice("announce " + im.ended.str() + "_" + std::to_string(im.pid), im.t,
          im.settled_at, "\"forced_rollbacks\":" +
                             std::to_string(im.forced_rollbacks.size()) +
                             ",\"forced_retransmits\":" +
                             std::to_string(im.forced_retransmits.size()));
    for (size_t i = 0; i < im.critical.size(); ++i) {
      const PathHop& hop = im.critical[i];
      std::string args = "\"hop\":" + std::to_string(i);
      if (hop.via)
        args += ",\"via\":\"" + json_escape(format_msg_id(*hop.via)) + "\"";
      slice(hop.iv.str(), hop.t, im.settled_at, args);
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

CriticalPathSummary summarize_critical_paths(
    const std::vector<FailureImpact>& impacts) {
  CriticalPathSummary s;
  s.announcements = static_cast<int>(impacts.size());
  for (const FailureImpact& im : impacts) {
    s.forced_rollbacks += static_cast<int>(im.forced_rollbacks.size());
    s.forced_retransmits += static_cast<int>(im.forced_retransmits.size());
    s.max_hops = std::max(s.max_hops, static_cast<int>(im.critical.size()));
    s.max_settle_us = std::max(s.max_settle_us, im.settled_at - im.t);
  }
  return s;
}

}  // namespace koptlog::analysis
