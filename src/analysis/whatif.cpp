#include "analysis/whatif.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/ids.h"

namespace koptlog::analysis {

namespace {

/// Replay one episode's release rule at bound `k`. Returns the release
/// time, or nullopt when the live count never drops to <= k (or the
/// episode is doomed first).
std::optional<SimTime> replay_episode(const CausalGraph& g,
                                      const MsgEpisode& ep, int k,
                                      int& live_at_send) {
  const ProtocolEvent& send =
      g.trace().events[static_cast<size_t>(ep.send_ev)];
  std::vector<SimTime> null_times;
  int live = 0;
  int never = 0;
  for (ProcessId j = 0; j < send.tdv.size(); ++j) {
    if (!send.tdv.at(j)) continue;
    ++live;
    if (auto t = g.covered_at(ep.sender, j, *send.tdv.at(j), send.t)) {
      null_times.push_back(*t);
    } else {
      ++never;
    }
  }
  live_at_send = live;
  std::optional<SimTime> release;
  if (live <= k) {
    release = send.t;  // the engine checks the buffer right at enqueue
  } else {
    int need = live - k;
    if (need <= static_cast<int>(null_times.size())) {
      std::sort(null_times.begin(), null_times.end());
      release = null_times[static_cast<size_t>(need) - 1];
    }
  }
  // An episode the recorded run lost (sender crash wiped the buffer, or an
  // orphan discard) cannot release once its fate struck.
  if (release && (ep.end == MsgEpisode::End::kCrashWiped ||
                  ep.end == MsgEpisode::End::kDiscarded) &&
      *release >= ep.doomed_at) {
    release.reset();
  }
  return release;
}

/// Chain shift per interval: nullopt = blocked behind a message the replay
/// never releases. Iterative DFS (traces can chain thousands of intervals).
class ShiftMap {
 public:
  ShiftMap(const CausalGraph& g,
           const std::map<int, std::optional<SimTime>>& episode_delta)
      : g_(g), delta_(episode_delta) {}

  /// `blocked` out-param distinguishes "no shift" from "never happens".
  SimTime shift_of(const IntervalId& iv, bool& blocked) {
    compute(iv);
    const std::optional<SimTime>& s = memo_.at(iv);
    blocked = !s.has_value();
    return s.value_or(0);
  }

 private:
  void compute(const IntervalId& root) {
    std::vector<IntervalId> stack{root};
    while (!stack.empty()) {
      IntervalId iv = stack.back();
      if (memo_.count(iv)) {
        stack.pop_back();
        continue;
      }
      const IntervalNode* node = g_.interval(iv);
      if (node == nullptr) {  // pre-trace leaf: nothing shifted it
        memo_[iv] = SimTime{0};
        stack.pop_back();
        continue;
      }
      bool ready = true;
      for (const IntervalId& p : node->parents) {
        if (memo_.count(p) == 0 && !in_progress_.count(p)) {
          stack.push_back(p);
          ready = false;
        }
      }
      if (!ready) {
        in_progress_.insert(iv);
        continue;
      }
      std::optional<SimTime> shift = SimTime{0};
      for (size_t pi = 0; pi < node->parents.size(); ++pi) {
        auto it = memo_.find(node->parents[pi]);
        // The parent's shift, or `never` when the parent never happens. A
        // parent still in_progress would mean a cycle; the interval DAG has
        // none, but a malformed trace shouldn't hang us.
        SimTime ps = 0;
        bool never = false;
        if (it != memo_.end()) {
          never = !it->second.has_value();
          ps = it->second.value_or(0);
        }
        // The delivery edge additionally carries the message's own delay.
        if (static_cast<int>(pi) == node->msg_parent && node->via_msg &&
            !never) {
          if (auto dep = departure_delta(*node->via_msg); dep.has_value()) {
            if (dep->has_value()) {
              ps += **dep;
            } else {
              never = true;  // message never released in replay
            }
          }
        }
        if (!shift) continue;
        if (never) {
          shift.reset();
        } else {
          shift = std::max(*shift, ps);
        }
      }
      memo_[iv] = shift;
      in_progress_.erase(iv);
      stack.pop_back();
    }
  }

  /// Outer optional: is there a released episode to attribute at all?
  /// Inner optional: its replay delay, nullopt when replay never releases.
  std::optional<std::optional<SimTime>> departure_delta(const MsgId& msg) {
    auto dep = g_.departure_of(msg);
    if (!dep) return std::nullopt;
    auto it = delta_.find(*dep);
    if (it == delta_.end()) return std::nullopt;  // departure was a raw send
    return it->second;
  }

  const CausalGraph& g_;
  const std::map<int, std::optional<SimTime>>& delta_;
  std::map<IntervalId, std::optional<SimTime>> memo_;
  std::set<IntervalId> in_progress_;
};

}  // namespace

WhatIfResult whatif_replay(const CausalGraph& g, int k) {
  const Trace& tr = g.trace();
  WhatIfResult res;
  res.k = k;
  // Release-event index -> replay delay vs recorded (nullopt: never).
  std::map<int, std::optional<SimTime>> episode_delta;
  for (size_t i = 0; i < g.episodes().size(); ++i) {
    const MsgEpisode& ep = g.episodes()[i];
    if (ep.send_ev < 0) continue;
    const ProtocolEvent& send = tr.events[static_cast<size_t>(ep.send_ev)];
    int eff_k = k >= 0 ? k : send.k_limit;
    WhatIfEpisode we;
    we.episode = static_cast<int>(i);
    we.send_t = send.t;
    we.replay_release = replay_episode(g, ep, eff_k, we.live_at_send);
    if (ep.release_ev >= 0) {
      we.recorded_release = tr.events[static_cast<size_t>(ep.release_ev)].t;
      episode_delta[ep.release_ev] =
          we.replay_release
              ? std::optional<SimTime>{*we.replay_release -
                                       *we.recorded_release}
              : std::nullopt;
    }
    ++res.sends;
    if (we.replay_release) {
      ++res.released;
      res.hold_us.add(static_cast<double>(*we.replay_release - we.send_t));
    } else {
      ++res.never_released;
    }
    res.episodes.push_back(we);
  }

  ShiftMap shifts(g, episode_delta);
  for (int c_idx : g.commit_events()) {
    const ProtocolEvent& c = tr.events[static_cast<size_t>(c_idx)];
    bool blocked = false;
    SimTime shift = shifts.shift_of(c.ref, blocked);
    if (blocked) {
      ++res.commits_blocked;
      continue;
    }
    res.commit_shift_us.add(static_cast<double>(shift));
    // The stability timeline (log flushes, announcements) is K-independent,
    // so an emission delayed by `shift` waits that much less for its
    // dependencies to stabilize.
    std::optional<SimTime> send_t;
    for (int ei : g.episodes_of(c.msg)) {
      const MsgEpisode& ep = g.episodes()[static_cast<size_t>(ei)];
      if (ep.send_ev >= 0)
        send_t = tr.events[static_cast<size_t>(ep.send_ev)].t;
    }
    if (send_t) {
      SimTime recorded_lat = c.t - *send_t;
      res.commit_latency_us.add(
          static_cast<double>(std::max<SimTime>(recorded_lat - shift, 0)));
    }
  }
  return res;
}

std::vector<WhatIfResult> whatif_sweep(const CausalGraph& g,
                                       const std::vector<int>& ks) {
  std::vector<WhatIfResult> out;
  out.reserve(ks.size());
  for (int k : ks) out.push_back(whatif_replay(g, k));
  return out;
}

WhatIfCheck whatif_self_check(const CausalGraph& g) {
  WhatIfCheck check;
  WhatIfResult res = whatif_replay(g, -1);
  for (const WhatIfEpisode& we : res.episodes) {
    const MsgEpisode& ep = g.episodes()[static_cast<size_t>(we.episode)];
    std::ostringstream os;
    if (we.recorded_release.has_value() != we.replay_release.has_value()) {
      os << "episode of " << format_msg_id(ep.id) << " sent at t="
         << we.send_t << ": recorded "
         << (we.recorded_release ? "released" : "never released")
         << " but replay "
         << (we.replay_release ? "released" : "never released");
    } else if (we.recorded_release && we.replay_release &&
               *we.recorded_release != *we.replay_release) {
      os << "episode of " << format_msg_id(ep.id) << " sent at t="
         << we.send_t << ": recorded release t=" << *we.recorded_release
         << " but replay t=" << *we.replay_release;
    } else {
      continue;
    }
    check.ok = false;
    check.detail = os.str();
    break;
  }
  return check;
}

void print_whatif(const std::vector<WhatIfResult>& results,
                  std::ostream& os) {
  os << std::left << std::setw(6) << "K'" << std::right << std::setw(7)
     << "sends" << std::setw(9) << "released" << std::setw(7) << "never"
     << std::setw(11) << "hold_p50" << std::setw(11) << "hold_p99"
     << std::setw(11) << "hold_max" << std::setw(10) << "shift_p50"
     << std::setw(10) << "shift_p99" << std::setw(9) << "lat_p50"
     << std::setw(9) << "lat_p99" << std::setw(9) << "blocked" << '\n';
  for (const WhatIfResult& r : results) {
    os << std::left << std::setw(6)
       << (r.k >= 0 ? std::to_string(r.k) : std::string("rec"))
       << std::right << std::setw(7) << r.sends << std::setw(9) << r.released
       << std::setw(7) << r.never_released << std::setw(11)
       << static_cast<int64_t>(r.hold_us.p50()) << std::setw(11)
       << static_cast<int64_t>(r.hold_us.p99()) << std::setw(11)
       << static_cast<int64_t>(r.hold_us.max()) << std::setw(10)
       << static_cast<int64_t>(r.commit_shift_us.p50()) << std::setw(10)
       << static_cast<int64_t>(r.commit_shift_us.p99()) << std::setw(9)
       << static_cast<int64_t>(r.commit_latency_us.p50()) << std::setw(9)
       << static_cast<int64_t>(r.commit_latency_us.p99()) << std::setw(9)
       << r.commits_blocked << '\n';
  }
}

}  // namespace koptlog::analysis
