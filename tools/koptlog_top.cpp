// koptlog_top — curses-free terminal dashboard over a health sidecar
// (--health-out JSONL from koptlog_sim, schema obs/health/health_io.h).
//
//   koptlog_top run_health.jsonl             # follow live, redraw each tick
//   koptlog_top --once run_health.jsonl      # one machine-readable snapshot
//
// Follow mode re-reads the (append-only) file on an interval, tolerates a
// torn final line, and redraws per-domain rows: the latest value of every
// metric plus a sparkline column of its recent trajectory. --once prints
// one stable `dom metric kind last min max [p50 p99]` table for scripts —
// no escape codes, no redraw.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health/health.h"
#include "obs/health/health_io.h"

using namespace koptlog;

namespace {

struct Options {
  std::string path;
  bool once = false;
  int64_t interval_ms = 1000;
  int iterations = 0;  // follow mode: 0 = until killed (or file stops)
  int width = 32;      // sparkline columns
};

[[noreturn]] void usage(const char* argv0) {
  std::cout << "usage: " << argv0 << " [options] HEALTH.jsonl\n"
            << "  --once            print one machine-readable snapshot and exit\n"
            << "  --interval-ms INT follow-mode refresh cadence (default 1000)\n"
            << "  --iterations INT  follow mode: stop after N redraws (0 = run\n"
            << "                    until interrupted; useful for tests)\n"
            << "  --width INT       sparkline columns (default 32)\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  std::string inline_val;
  bool has_inline = false;
  auto need = [&](int& i) -> std::string {
    if (has_inline) return inline_val;
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string f = argv[i];
    has_inline = false;
    if (f.rfind("--", 0) == 0) {
      if (size_t eq = f.find('='); eq != std::string::npos) {
        inline_val = f.substr(eq + 1);
        f.resize(eq);
        has_inline = true;
      }
    }
    if (f == "--once") o.once = true;
    else if (f == "--interval-ms") o.interval_ms = std::stoll(need(i));
    else if (f == "--iterations") o.iterations = std::stoi(need(i));
    else if (f == "--width") o.width = std::stoi(need(i));
    else if (f.rfind("--", 0) == 0) usage(argv[0]);
    else if (o.path.empty()) o.path = f;
    else usage(argv[0]);
  }
  if (o.path.empty()) usage(argv[0]);
  if (o.width < 4) o.width = 4;
  return o;
}

/// One metric's trajectory across the file's ticks for one domain.
struct SeriesPoint {
  int64_t t_us;
  double v;
};
using SeriesMap = std::map<std::string, std::map<std::string, std::vector<SeriesPoint>>>;

struct Folded {
  SeriesMap series;                       // dom -> metric -> points
  std::map<std::string, char> kind;  // "dom/metric" -> c|g|h
  std::map<std::string, HealthHistogramSnapshot> last_hist;  // dom/metric
  size_t ticks = 0;
};

Folded fold(const HealthSeries& hs) {
  Folded f;
  for (const auto& tick : hs.ticks) {
    ++f.ticks;
    const std::string& dom = tick.domain.name;
    for (const auto& [name, v] : tick.domain.counters) {
      f.series[dom][name].push_back({tick.t_us, static_cast<double>(v)});
      f.kind[dom + "/" + name] = 'c';
    }
    for (const auto& [name, v] : tick.domain.gauges) {
      f.series[dom][name].push_back({tick.t_us, static_cast<double>(v)});
      f.kind[dom + "/" + name] = 'g';
    }
    for (const auto& [name, h] : tick.domain.histograms) {
      // Trajectory of the running p99; the final snapshot keeps the full
      // bucket detail for the table columns.
      f.series[dom][name].push_back({tick.t_us, h.quantile(0.99)});
      f.kind[dom + "/" + name] = 'h';
      f.last_hist[dom + "/" + name] = h;
    }
  }
  return f;
}

/// ASCII sparkline (no UTF-8 assumptions in dumb terminals / CI logs):
/// 8 levels " .:-=+*#", min..max scaled per series.
std::string sparkline(const std::vector<SeriesPoint>& pts, int width) {
  static const char kLevels[] = " .:-=+*#";
  if (pts.empty()) return std::string(static_cast<size_t>(width), ' ');
  size_t n = pts.size();
  size_t take = std::min(n, static_cast<size_t>(width));
  double lo = pts[n - take].v, hi = lo;
  for (size_t i = n - take; i < n; ++i) {
    lo = std::min(lo, pts[i].v);
    hi = std::max(hi, pts[i].v);
  }
  std::string out;
  for (size_t i = n - take; i < n; ++i) {
    double frac = hi > lo ? (pts[i].v - lo) / (hi - lo) : 0.0;
    int lvl = static_cast<int>(frac * 7.0 + 0.5);
    out += kLevels[std::clamp(lvl, 0, 7)];
  }
  if (out.size() < static_cast<size_t>(width))
    out.insert(0, static_cast<size_t>(width) - out.size(), ' ');
  return out;
}

std::string fmt_num(double v) {
  std::ostringstream os;
  if (v == static_cast<double>(static_cast<int64_t>(v)) && std::abs(v) < 1e15) {
    os << static_cast<int64_t>(v);
  } else {
    os.precision(1);
    os << std::fixed << v;
  }
  return os.str();
}

int print_once(const Folded& f) {
  // Stable machine-readable table: one row per dom/metric, whitespace-
  // separated, sorted (map order). Scripts parse columns 1..4 (+5/6 for
  // histograms).
  std::cout << "# dom metric kind last min max [p50 p99]\n";
  for (const auto& [dom, metrics] : f.series) {
    for (const auto& [name, pts] : metrics) {
      const std::string key = dom + "/" + name;
      double last = pts.back().v, lo = pts[0].v, hi = pts[0].v;
      for (const SeriesPoint& p : pts) {
        lo = std::min(lo, p.v);
        hi = std::max(hi, p.v);
      }
      std::cout << dom << " " << name << " " << f.kind.at(key) << " "
                << fmt_num(last) << " " << fmt_num(lo) << " " << fmt_num(hi);
      auto it = f.last_hist.find(key);
      if (it != f.last_hist.end()) {
        std::cout << " " << fmt_num(it->second.quantile(0.5)) << " "
                  << fmt_num(it->second.quantile(0.99));
      }
      std::cout << "\n";
    }
  }
  return 0;
}

void print_follow(const Folded& f, const Options& o, size_t frame) {
  // Home the cursor and clear below — a poor man's full-screen redraw that
  // works in any ANSI terminal without curses.
  std::cout << "\x1b[H\x1b[J";
  std::cout << "koptlog_top — " << o.path << "  (frame " << frame << ", "
            << f.ticks << " ticks)\n\n";
  size_t name_w = 24;
  for (const auto& [dom, metrics] : f.series) {
    for (const auto& [name, pts] : metrics)
      name_w = std::max(name_w, name.size() + 1);
  }
  for (const auto& [dom, metrics] : f.series) {
    std::cout << dom << ":\n";
    for (const auto& [name, pts] : metrics) {
      const std::string key = dom + "/" + name;
      std::cout << "  " << name
                << std::string(name_w > name.size() ? name_w - name.size() : 1,
                               ' ')
                << "[" << sparkline(pts, o.width) << "] "
                << fmt_num(pts.back().v);
      auto it = f.last_hist.find(key);
      if (it != f.last_hist.end())
        std::cout << "  p99=" << fmt_num(it->second.quantile(0.99))
                  << " n=" << it->second.count;
      std::cout << "\n";
    }
  }
  std::cout.flush();
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);

  auto load = [&](HealthSeries& hs, std::string& err) -> bool {
    std::ifstream in(o.path);
    if (!in) {
      err = "cannot read " + o.path;
      return false;
    }
    std::vector<std::string> errors;
    hs = read_health_jsonl(in, errors);
    if (!hs.have_meta && hs.ticks.empty()) {
      err = o.path + " contains no health samples (is it a --health-out "
            "sidecar?)";
      if (!errors.empty()) err += " [" + errors.front() + "]";
      return false;
    }
    return true;
  };

  if (o.once) {
    HealthSeries hs;
    std::string err;
    if (!load(hs, err)) {
      std::cerr << "error: " << err << "\n";
      return 2;
    }
    return print_once(fold(hs));
  }

  // Follow mode: re-read and redraw until interrupted (or --iterations).
  size_t frame = 0;
  int failures = 0;
  for (;;) {
    HealthSeries hs;
    std::string err;
    if (load(hs, err)) {
      failures = 0;
      print_follow(fold(hs), o, ++frame);
    } else if (++failures == 1) {
      std::cerr << "waiting: " << err << "\n";
    } else if (failures > 30) {
      std::cerr << "error: " << err << "\n";
      return 2;
    }
    if (o.iterations > 0 && frame >= static_cast<size_t>(o.iterations)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(o.interval_ms));
  }
  return 0;
}
