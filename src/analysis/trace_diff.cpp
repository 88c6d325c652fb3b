#include "analysis/trace_diff.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "obs/ids.h"

namespace koptlog::analysis {

namespace {

const char* end_name(MsgEpisode::End e) {
  switch (e) {
    case MsgEpisode::End::kReleased:
      return "released";
    case MsgEpisode::End::kCrashWiped:
      return "crash-wiped";
    case MsgEpisode::End::kDiscarded:
      return "orphan-discarded";
    case MsgEpisode::End::kUnreleased:
      return "unreleased";
  }
  return "?";
}

/// Modal k_limit over kSend events; -1 when no send carries one.
int modal_k(const CausalGraph& g) {
  std::map<int, int> votes;
  for (const ProtocolEvent& e : g.trace().events) {
    if (e.kind == EventKind::kSend && e.k_limit >= 0) ++votes[e.k_limit];
  }
  int best = -1, best_votes = 0;
  for (const auto& [k, v] : votes) {
    if (v > best_votes) {
      best = k;
      best_votes = v;
    }
  }
  return best;
}

std::optional<SimTime> event_time(const CausalGraph& g, int ev) {
  if (ev < 0) return std::nullopt;
  return g.trace().events[static_cast<size_t>(ev)].t;
}

/// (id, occurrence) -> episode, occurrence in sender stream order.
std::map<std::pair<MsgId, int>, const MsgEpisode*> keyed_episodes(
    const CausalGraph& g) {
  std::map<std::pair<MsgId, int>, const MsgEpisode*> out;
  std::map<MsgId, int> seen;
  for (const MsgEpisode& ep : g.episodes()) {
    out.emplace(std::make_pair(ep.id, seen[ep.id]++), &ep);
  }
  return out;
}

std::map<MsgId, SimTime> commit_times(const CausalGraph& g) {
  std::map<MsgId, SimTime> out;
  for (int ev : g.commit_events()) {
    const ProtocolEvent& e = g.trace().events[static_cast<size_t>(ev)];
    out.emplace(e.msg, e.t);  // first commit wins
  }
  return out;
}

std::string signed_us(SimTime v) {
  std::string out = v >= 0 ? "+" : "";
  out += std::to_string(v);
  out += " us";
  return out;
}

}  // namespace

TraceDiff diff_traces(const CausalGraph& a, const CausalGraph& b) {
  TraceDiff d;
  d.n_a = a.n();
  d.n_b = b.n();
  d.k_a = modal_k(a);
  d.k_b = modal_k(b);
  d.episodes_a = static_cast<int>(a.episodes().size());
  d.episodes_b = static_cast<int>(b.episodes().size());

  auto ka = keyed_episodes(a);
  auto kb = keyed_episodes(b);
  for (const auto& [key, ea] : ka) {
    auto it = kb.find(key);
    if (it == kb.end()) {
      ++d.only_a;
      continue;
    }
    const MsgEpisode* eb = it->second;
    ++d.matched;
    EpisodeDelta delta;
    delta.id = key.first;
    delta.occurrence = key.second;
    delta.sender = ea->sender;
    delta.send_a = event_time(a, ea->send_ev);
    delta.send_b = event_time(b, eb->send_ev);
    delta.release_a = event_time(a, ea->release_ev);
    delta.release_b = event_time(b, eb->release_ev);
    delta.end_a = ea->end;
    delta.end_b = eb->end;
    if (auto shift = delta.release_shift()) d.release_shift_us.add(
        static_cast<double>(*shift));
    bool moved = delta.release_shift().value_or(0) != 0;
    if (delta.end_changed() || moved) {
      d.changed.push_back(std::move(delta));
    } else {
      ++d.identical;
    }
  }
  for (const auto& [key, eb] : kb) {
    if (!ka.count(key)) ++d.only_b;
  }
  // Fate changes first, then by release-shift magnitude.
  std::stable_sort(d.changed.begin(), d.changed.end(),
                   [](const EpisodeDelta& x, const EpisodeDelta& y) {
                     if (x.end_changed() != y.end_changed())
                       return x.end_changed();
                     return std::llabs(x.release_shift().value_or(0)) >
                            std::llabs(y.release_shift().value_or(0));
                   });

  auto ca = commit_times(a);
  auto cb = commit_times(b);
  d.commits_a = static_cast<int>(ca.size());
  d.commits_b = static_cast<int>(cb.size());
  for (const auto& [id, ta] : ca) {
    auto it = cb.find(id);
    if (it == cb.end()) {
      d.commit_changed.push_back({id, ta, std::nullopt});
      continue;
    }
    ++d.commits_matched;
    d.commit_shift_us.add(static_cast<double>(it->second - ta));
    if (it->second != ta) d.commit_changed.push_back({id, ta, it->second});
  }
  for (const auto& [id, tb] : cb) {
    if (!ca.count(id)) d.commit_changed.push_back({id, std::nullopt, tb});
  }
  std::stable_sort(d.commit_changed.begin(), d.commit_changed.end(),
                   [](const CommitDelta& x, const CommitDelta& y) {
                     bool xone = !x.t_a || !x.t_b, yone = !y.t_a || !y.t_b;
                     if (xone != yone) return xone;
                     SimTime xs = (x.t_a && x.t_b) ? *x.t_b - *x.t_a : 0;
                     SimTime ys = (y.t_a && y.t_b) ? *y.t_b - *y.t_a : 0;
                     return std::llabs(xs) > std::llabs(ys);
                   });

  bool commits_one_sided = d.commits_matched != d.commits_a ||
                           d.commits_matched != d.commits_b;
  d.comparable = d.n_a == d.n_b && d.only_a == 0 && d.only_b == 0 &&
                 !commits_one_sided;
  return d;
}

void print_trace_diff(const TraceDiff& d, std::ostream& os, int top) {
  auto k_str = [](int k) {
    return k < 0 ? std::string("?") : std::to_string(k);
  };
  os << "A: n=" << d.n_a << " K=" << k_str(d.k_a) << ", " << d.episodes_a
     << " episodes, " << d.commits_a << " commits\n"
     << "B: n=" << d.n_b << " K=" << k_str(d.k_b) << ", " << d.episodes_b
     << " episodes, " << d.commits_b << " commits\n";
  if (!d.comparable) {
    os << "note: traces are not one-to-one (different processes, message "
          "sets or outputs) — deltas below are positional, not pure K "
          "effects\n";
  }
  os << "episodes: " << d.matched << " matched (" << d.identical
     << " identical, " << d.changed.size() << " changed)";
  if (d.only_a || d.only_b) {
    os << ", " << d.only_a << " only in A, " << d.only_b << " only in B";
  }
  os << "\n";
  if (d.release_shift_us.count() > 0) {
    os << "release shift (B - A): n=" << d.release_shift_us.count()
       << " mean " << signed_us(static_cast<SimTime>(
                           std::llround(d.release_shift_us.mean())))
       << ", p50 " << signed_us(static_cast<SimTime>(
                           std::llround(d.release_shift_us.p50())))
       << ", max " << signed_us(static_cast<SimTime>(
                           std::llround(d.release_shift_us.max())))
       << "\n";
  }
  int shown = 0;
  for (const EpisodeDelta& e : d.changed) {
    if (shown++ >= top) {
      os << "  ... " << (d.changed.size() - static_cast<size_t>(top))
         << " more changed episodes\n";
      break;
    }
    os << "  " << format_msg_id(e.id);
    if (e.occurrence > 0) os << " (resend #" << e.occurrence << ")";
    os << " from P" << e.sender << ": " << end_name(e.end_a);
    if (e.release_a) os << " @" << *e.release_a;
    os << " -> " << end_name(e.end_b);
    if (e.release_b) os << " @" << *e.release_b;
    if (auto shift = e.release_shift()) os << "  (" << signed_us(*shift) << ")";
    os << "\n";
  }
  os << "commits: " << d.commits_matched << " matched, "
     << d.commit_changed.size() << " changed\n";
  if (d.commit_shift_us.count() > 0) {
    os << "commit shift (B - A): mean "
       << signed_us(static_cast<SimTime>(
              std::llround(d.commit_shift_us.mean())))
       << ", p50 " << signed_us(static_cast<SimTime>(
                           std::llround(d.commit_shift_us.p50())))
       << ", max " << signed_us(static_cast<SimTime>(
                           std::llround(d.commit_shift_us.max())))
       << "\n";
  }
  shown = 0;
  for (const CommitDelta& c : d.commit_changed) {
    if (shown++ >= top) {
      os << "  ... " << (d.commit_changed.size() - static_cast<size_t>(top))
         << " more changed commits\n";
      break;
    }
    os << "  " << format_msg_id(c.output) << ": ";
    if (c.t_a && c.t_b) {
      os << "commit @" << *c.t_a << " -> @" << *c.t_b << "  ("
         << signed_us(*c.t_b - *c.t_a) << ")";
    } else if (c.t_a) {
      os << "committed in A @" << *c.t_a << ", never in B";
    } else {
      os << "never in A, committed in B @" << *c.t_b;
    }
    os << "\n";
  }
}

}  // namespace koptlog::analysis
