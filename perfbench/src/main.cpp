// perfbench — end-to-end K-optimistic logging benchmark with per-layer
// attribution. One invocation runs one workload:
//
//   perfbench --workload service|audit-trace|oracle-faults|threaded-service
//             --seed N --seconds S --trace 0|1
//
// The workload seed fixes a set of instances (see workload.h). The timed
// loop runs that set in whole cycles until S seconds have passed; every
// metric is computed per cycle and reported as the median over cycles.
// With --trace 0 the cycles are untraced and the end-to-end metrics are
// printed; with --trace 1 every instance runs untraced and then traced
// (span decorators installed), and the per-layer metrics come from the
// traced runs. Every run's outputs are checked; any failed check makes the
// result "correct": false and the exit code 1. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "calibrate.h"
#include "workload.h"

using namespace perfbench;
using koptlog::Histogram;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n  workloads:";
  for (const std::string& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string f = argv[i];
    if (i + 1 >= argc) usage();
    std::string v = argv[++i];
    try {
      if (f == "--workload") a.workload = v;
      else if (f == "--seed") a.seed = std::stoull(v);
      else if (f == "--seconds") a.seconds = std::stod(v);
      else if (f == "--trace") a.trace = std::stoi(v);
      else usage();
    } catch (const std::exception&) {
      usage();
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
    usage();
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Mean of `v` after dropping its lowest and highest `v.size() / cut`
/// values: cut 16 trims one in sixteen at each end, cut 4 leaves the
/// interquartile mean.
double trimmed_mean(std::vector<double> v, size_t cut) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t drop = v.size() / cut;
  double sum = 0;
  for (size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

/// The highest of p99.9 / p99 / p90 with at least ten samples beyond it.
struct Tail {
  double value = 0;
  std::string label = "max";
  size_t samples = 0;
  size_t beyond = 0;

  std::string note(const char* what) const {
    return label + " of " + std::to_string(samples) + " " + what + ", " +
           std::to_string(beyond) + " beyond";
  }
};

Tail tail_of(const Histogram& h) {
  Tail t;
  t.samples = h.count();
  for (auto [q, label] : {std::pair{0.999, "p99.9"}, std::pair{0.99, "p99"},
                          std::pair{0.9, "p90"}}) {
    auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(t.samples)));
    if (t.samples - std::min(rank, t.samples) >= 10) {
      t.value = h.quantile(q);
      t.label = label;
      t.beyond = t.samples - rank;
      return t;
    }
  }
  t.value = h.max();
  return t;
}

/// A Stats histogram pooled over runs (exact: every sample is kept).
Histogram pooled(const std::vector<const InstanceResult*>& runs,
                 const std::string& name) {
  Histogram h;
  for (const InstanceResult* r : runs) h.merge(r->stats.histogram(name));
  return h;
}

int64_t counter_sum(const std::vector<const InstanceResult*>& runs,
                    const std::string& name) {
  int64_t s = 0;
  for (const InstanceResult* r : runs) s += r->stats.counter(name);
  return s;
}

struct Metric {
  std::string name;
  std::string unit;
};

// End-to-end metrics every workload reports (the BENCHMARK.json set).
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"deliveries_per_s", "1/s"},
    {"outputs_per_s", "1/s"},
    {"cpu_us_per_delivery", "us"},
    {"verdict_s", "s"},
    {"commit_p50_ms", "ms"},
    {"commit_tail_ms", "ms"},
    {"recovery_ms", "ms"},
    {"peak_rss_mb", "MB"},
};
// Client-server workloads only; printed, not part of the JSON set.
const std::vector<Metric> kServiceOnly = {
    {"request_p50_ms", "ms"},
    {"request_tail_ms", "ms"},
    {"failed_share", "ratio"},
};

const std::vector<Metric> kPerLayer = {
    {"trace_overhead_pct", "%"},
    {"sim.events", "count"},
    {"sim.events_per_delivery", "ratio"},
    {"sim.self_s", "s"},
    {"net.app_routes", "count"},
    {"net.route_s", "s"},
    {"net.progress_broadcasts", "count"},
    {"net.announcements", "count"},
    {"net.control_sends_per_delivery", "ratio"},
    {"net.piggyback_bytes_per_msg", "B"},
    {"core.app_msg.calls", "count"},
    {"core.app_msg.self_s", "s"},
    {"core.log_progress.calls", "count"},
    {"core.log_progress.self_s", "s"},
    {"core.announcement.calls", "count"},
    {"core.announcement.self_s", "s"},
    {"core.restart_s", "s"},
    {"core.rollbacks", "count"},
    {"core.orphans_discarded", "count"},
    {"core.useful_delivery_ratio", "ratio"},
    {"runtime.held_sends", "count"},
    {"runtime.send_hold_p50_ms", "ms"},
    {"runtime.recv_delayed", "count"},
    {"runtime.output_yield", "ratio"},
    {"runtime.commit_s", "s"},
    {"app.deliver.calls", "count"},
    {"app.deliver_s", "s"},
    {"storage.flushes_per_delivery", "ratio"},
    {"storage.sync_writes", "count"},
    {"storage.checkpoints", "count"},
    {"oracle.verify_s", "s"},
    {"oracle.intervals", "count"},
    {"obs.events", "count"},
    {"obs.merge_s", "s"},
    {"obs.write_s", "s"},
    {"obs.read_s", "s"},
    {"obs.audit_s", "s"},
    {"obs.bytes_per_event", "B"},
    {"exec.busy_share", "ratio"},
    {"exec.wakeups_per_delivery", "ratio"},
    {"exec.drains", "count"},
    {"exec.max_occupancy", "count"},
    {"exec.producer_stalls", "count"},
    {"exec.makespan_over_ms", "ms"},
    {"exec.shutdown_s", "s"},
};

using Values = std::map<std::string, double>;

double div0(double a, double b) { return b == 0 ? 0 : a / b; }

SpanTotals span(const InstanceResult& r, SpanName n) {
  auto it = r.spans.find(n);
  return it == r.spans.end() ? SpanTotals{} : it->second;
}

/// End-to-end metrics of one cycle (one untraced run of every instance).
/// Throughput and CPU cost are totals over the cycle, and the median commit
/// and request delays are taken over its pooled samples. Verdict time, peak
/// RSS, recovery and the tails are figures of one cluster run, combined
/// over the instances with trimmed means. Costs trim one in sixteen at each
/// end: on the crash-heavy workloads they are bimodal (an instance whose
/// crash cascades does about twice the work), where a median would sit on
/// the boundary between the modes, and the trim only drops the odd spike
/// of a sub-millisecond timing. Tails keep the middle half: a tail is an
/// order statistic that one instance's pathology (a crash that cascades
/// through most of the run, a host stall) can move several-fold.
/// Wall times are host-speed scaled (calibrate.h); the unscaled figures
/// are kept under a "wall." prefix for the report.
Values end_to_end(const WorkloadSpec& w,
                  const std::vector<const InstanceResult*>& runs,
                  std::map<std::string, std::string>& notes) {
  Values v;
  double run_s = 0, raw_run_s = 0, cpu = 0, raw_cpu = 0;
  int64_t deliveries = 0, outputs = 0;
  int requests = 0, answered = 0, unserved = 0;
  std::vector<double> verdict, raw_verdict, rss, recovery, commit_tail;
  std::vector<double> request_tail;
  Histogram latencies;
  Tail ct, rt;
  // A threaded run phase is paced by the clock, so its wall time is not
  // scaled; its CPU time is.
  const bool paced = w.backend == Backend::kThreaded;
  for (const InstanceResult* r : runs) {
    run_s += r->run_s * (paced ? 1 : r->scale);
    raw_run_s += r->run_s;
    cpu += r->cpu_s * r->scale;
    raw_cpu += r->cpu_s;
    if (w.verdict != Verdict::kDigest) {
      verdict.push_back(r->verdict_s * r->scale);
      raw_verdict.push_back(r->verdict_s);
    }
    rss.push_back(r->peak_rss_mb);
    deliveries += r->counts.deliveries;
    outputs += r->counts.outputs;
    requests += r->requests;
    answered += r->answered;
    ct = tail_of(r->stats.histogram("output.commit_latency_us"));
    commit_tail.push_back(ct.value / 1000);
    if (w.app == AppKind::kClientServer) {
      Histogram lat;
      for (double us : r->request_latency_us) {
        lat.add(us);
        latencies.add(us);
      }
      rt = tail_of(lat);
      request_tail.push_back(rt.value / 1000);
    }
    unserved += r->unserved;
    double worst = 0;
    for (double us : r->recovery_us) worst = std::max(worst, us);
    recovery.push_back(worst / 1000);
  }
  const auto d = static_cast<double>(deliveries);
  v["deliveries_per_s"] = div0(d, run_s);
  v["wall.deliveries_per_s"] = div0(d, raw_run_s);
  v["outputs_per_s"] = div0(static_cast<double>(outputs), run_s);
  v["wall.outputs_per_s"] = div0(static_cast<double>(outputs), raw_run_s);
  v["cpu_us_per_delivery"] = div0(cpu * 1e6, d);
  v["wall.cpu_us_per_delivery"] = div0(raw_cpu * 1e6, d);
  // The digest workload's check is one compare; main() times its audited
  // reference runs instead.
  if (w.verdict != Verdict::kDigest) {
    v["verdict_s"] = trimmed_mean(verdict, 16);
    v["wall.verdict_s"] = trimmed_mean(raw_verdict, 16);
  }
  v["peak_rss_mb"] = trimmed_mean(rss, 16);
  v["recovery_ms"] = trimmed_mean(recovery, 16);
  notes["recovery_ms"] = "slowest crash per instance; " +
                         std::to_string(unserved) +
                         " crashes never served, counted to the end of the run";
  v["commit_p50_ms"] = pooled(runs, "output.commit_latency_us").p50() / 1000;
  v["commit_tail_ms"] = trimmed_mean(commit_tail, 4);
  notes["commit_tail_ms"] = "per instance, last: " + ct.note("outputs");
  if (w.app == AppKind::kClientServer) {
    v["request_p50_ms"] = latencies.p50() / 1000;
    v["request_tail_ms"] = trimmed_mean(request_tail, 4);
    notes["request_tail_ms"] = "per instance, last: " + rt.note("answered requests");
    v["failed_share"] =
        div0(static_cast<double>(requests - answered), static_cast<double>(requests));
    notes["failed_share"] = std::to_string(requests - answered) +
                            " unanswered of " + std::to_string(requests) +
                            " requests";
  }
  return v;
}

/// Per-layer metrics of one cycle: the traced runs, their untraced twins
/// (for the tracing overhead) and, on the threaded backend, the makespan of
/// the same inputs on the simulator.
Values per_layer(const WorkloadSpec& w,
                 const std::vector<const InstanceResult*>& traced,
                 const std::vector<const InstanceResult*>& bare,
                 const std::vector<double>& sim_makespan_us) {
  Values v;
  const bool sim = w.backend == Backend::kSim;
  double traced_run = 0, bare_run = 0, deliveries = 0, worker_root = 0;
  double shard_wall = 0, makespan_over = 0;
  double events = 0, obs_events = 0, trace_bytes = 0, intervals = 0;
  for (const InstanceResult* r : bare) bare_run += r->run_s * (sim ? r->scale : 1);
  for (size_t i = 0; i < traced.size(); ++i) {
    const InstanceResult* r = traced[i];
    traced_run += r->run_s * (sim ? r->scale : 1);
    deliveries += static_cast<double>(r->counts.deliveries);
    events += static_cast<double>(r->counts.sim_events);
    worker_root += r->worker_root_s;
    shard_wall += static_cast<double>(r->shards) * r->run_s;
    obs_events += static_cast<double>(r->recorded_events);
    trace_bytes += static_cast<double>(r->trace_bytes);
    intervals += static_cast<double>(r->oracle_intervals);
    if (!sim)
      makespan_over +=
          (static_cast<double>(r->makespan_us) - sim_makespan_us[i]) / 1000;
  }
  auto spans = [&](SpanName n) {
    SpanTotals t;
    for (const InstanceResult* r : traced) {
      SpanTotals s = span(*r, n);
      t.calls += s.calls;
      t.total_s += s.total_s;
      t.self_s += s.self_s;
    }
    return t;
  };
  auto counter = [&](const char* name) {
    return static_cast<double>(counter_sum(traced, name));
  };
  const double n_minus_1 = w.n - 1;

  v["trace_overhead_pct"] = (div0(traced_run, bare_run) - 1) * 100;
  v["sim.events"] = sim ? events : 0;
  v["sim.events_per_delivery"] = sim ? div0(events, deliveries) : 0;
  v["sim.self_s"] = sim ? spans(SpanName::kRunFor).self_s +
                              spans(SpanName::kDrain).self_s +
                              spans(SpanName::kShutdown).self_s
                        : 0;
  v["net.app_routes"] = static_cast<double>(spans(SpanName::kRoute).calls);
  v["net.route_s"] = spans(SpanName::kRoute).total_s;
  v["net.progress_broadcasts"] = counter("log_progress.sent");
  v["net.announcements"] = counter("announce.sent");
  v["net.control_sends_per_delivery"] =
      div0((counter("log_progress.sent") + counter("announce.sent")) * n_minus_1,
           deliveries);
  v["net.piggyback_bytes_per_msg"] = pooled(traced, "msg.piggyback_bytes").mean();
  v["core.app_msg.calls"] = static_cast<double>(spans(SpanName::kAppMsg).calls);
  v["core.app_msg.self_s"] = spans(SpanName::kAppMsg).self_s;
  v["core.log_progress.calls"] =
      static_cast<double>(spans(SpanName::kLogProgress).calls);
  v["core.log_progress.self_s"] = spans(SpanName::kLogProgress).self_s;
  v["core.announcement.calls"] =
      static_cast<double>(spans(SpanName::kAnnouncement).calls);
  v["core.announcement.self_s"] = spans(SpanName::kAnnouncement).self_s;
  v["core.restart_s"] = spans(SpanName::kRestart).total_s;
  v["core.rollbacks"] = counter("rollback.count");
  v["core.orphans_discarded"] =
      counter("msgs.discarded_orphan_recv") + counter("msgs.discarded_orphan_send");
  v["core.useful_delivery_ratio"] =
      1 - div0(counter("rollback.undone_intervals"), deliveries);
  v["runtime.held_sends"] = counter("msgs.released_delayed");
  v["runtime.send_hold_p50_ms"] = pooled(traced, "send.hold_us").p50() / 1000;
  v["runtime.recv_delayed"] = counter("recv.delayed");
  v["runtime.output_yield"] =
      div0(counter("outputs.committed"), counter("outputs.committed_total"));
  v["runtime.commit_s"] = spans(SpanName::kCommitOutput).total_s;
  v["app.deliver.calls"] = static_cast<double>(spans(SpanName::kDeliver).calls);
  v["app.deliver_s"] = spans(SpanName::kDeliver).total_s;
  v["storage.flushes_per_delivery"] =
      div0(counter("storage.async_flushes"), deliveries);
  v["storage.sync_writes"] = counter("storage.sync_writes");
  v["storage.checkpoints"] = counter("storage.checkpoints_taken");
  v["oracle.verify_s"] = spans(SpanName::kOracleVerify).total_s;
  v["oracle.intervals"] = intervals;
  v["obs.events"] = obs_events;
  v["obs.merge_s"] = spans(SpanName::kMerged).total_s;
  v["obs.write_s"] = spans(SpanName::kTraceWrite).total_s;
  v["obs.read_s"] = spans(SpanName::kTraceRead).total_s;
  v["obs.audit_s"] = spans(SpanName::kAudit).total_s;
  v["obs.bytes_per_event"] = trace_bytes > 0 ? div0(trace_bytes, obs_events) : 0;
  double max_occ = 0;
  for (const InstanceResult* r : traced)
    max_occ = std::max(max_occ,
                       static_cast<double>(r->stats.counter("mailbox.max_occupancy")));
  v["exec.busy_share"] = sim ? 0 : div0(worker_root, shard_wall);
  v["exec.wakeups_per_delivery"] = div0(counter("mailbox.wakeups"), deliveries);
  v["exec.drains"] = counter("mailbox.drains");
  v["exec.max_occupancy"] = max_occ;
  v["exec.producer_stalls"] = counter("mailbox.producer_stalls");
  v["exec.makespan_over_ms"] =
      sim ? 0 : makespan_over / static_cast<double>(traced.size());
  v["exec.shutdown_s"] = sim ? 0 : spans(SpanName::kShutdown).total_s;
  return v;
}

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse(argc, argv);
  WorkloadSpec w;
  if (!find_workload(a.workload, w)) usage();
  std::filesystem::create_directories(kWorkDir);

  std::vector<Inputs> inputs;
  for (int i = 0; i < w.instances; ++i) inputs.push_back(make_inputs(w, a.seed, i));
  const bool sim = w.backend == Backend::kSim;
  const bool traced_mode = a.trace == 1;
  std::cout << "# perfbench workload=" << w.name
            << " backend=" << (sim ? "sim" : "threaded") << " seed=" << a.seed
            << " n=" << w.n << " k=" << (w.k < 0 ? w.n : w.k)
            << " crashes=" << w.crashes << " requests=" << w.requests
            << " rate_per_s=" << w.rate_per_s << " instances=" << w.instances;
  if (!sim) std::cout << " shards=" << w.shards;
  std::cout << " trace=" << a.trace << "\n";
  // Pin the run (and the shard threads it starts) next to its calibration
  // kernel and scale its wall and CPU times (calibrate.h). The threaded
  // workload needs a sixth of one CPU at its pace, so its shards share the
  // pinned CPU without queueing behind each other.
  const bool scaled = pin_to_current_cpu();
  auto measure = [&](const Inputs& in, const RunOptions& o) {
    double before = scaled ? kernel_seconds() : 0;
    InstanceResult r = run_instance(w, in, o);
    if (scaled) r.scale = kReferenceKernelS / ((before + kernel_seconds()) / 2);
    return r;
  };

  bool correct = true;
  int attempted = 0, failed = 0;
  auto judge = [&](const InstanceResult& r, const std::string& what) {
    ++attempted;
    if (r.ok) return;
    ++failed;
    correct = false;
    std::cout << "# FAIL " << what << ": " << r.why << "\n";
  };

  // Exact counts: on the simulator, every execution of one instance (the
  // reference, warm-up, timed, traced and recount runs) must agree on them.
  std::vector<std::optional<Counts>> expected(inputs.size());
  auto same_counts = [&](size_t i, const InstanceResult& r, const std::string& what) {
    if (!sim || !r.ok) return;
    if (!expected[i]) {
      expected[i] = r.counts;
    } else if (!(*expected[i] == r.counts)) {
      correct = false;
      ++failed;
      std::cout << "# FAIL " << what << ": counts differ from the first run of "
                << "instance " << i << "\n#   first: " << expected[i]->str()
                << "\n#   now:   " << r.counts.str() << "\n";
    }
  };

  // The service workload's oracle: one recorded run per instance that the
  // trace audit passes; every later run must commit the same outputs. The
  // audit is this workload's verdict, so these runs give its verdict_s.
  std::vector<uint64_t> reference(inputs.size(), 0);
  std::vector<double> ref_verdict, raw_ref_verdict;
  if (w.verdict == Verdict::kDigest) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      RunOptions o;
      o.record = true;
      InstanceResult r = measure(inputs[i], o);
      judge(r, "reference run " + std::to_string(i));
      same_counts(i, r, "reference run " + std::to_string(i));
      reference[i] = r.counts.digest;
      ref_verdict.push_back(r.verdict_s * r.scale);
      raw_ref_verdict.push_back(r.verdict_s);
    }
  }
  // The threaded workload's makespan baseline: the same inputs on the sim.
  std::vector<double> sim_makespan(inputs.size(), 0);
  if (!sim && traced_mode) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      RunOptions o;
      o.force_sim = true;
      InstanceResult r = run_instance(w, inputs[i], o);
      judge(r, "sim twin " + std::to_string(i));
      sim_makespan[i] = static_cast<double>(r.makespan_us);
    }
  }

  // Warm-up: one untimed run of the first instance lets the allocator's
  // arenas, page tables and thread stacks settle before anything is timed.
  {
    RunOptions o;
    o.expect_digest = reference[0];
    InstanceResult r = measure(inputs[0], o);
    judge(r, "warm-up run");
    same_counts(0, r, "warm-up run");
  }

  std::vector<Values> cycles;
  std::map<std::string, std::string> notes;
  std::vector<double> setups, raw_setups, scales, late;
  std::map<std::string, std::vector<double>> spread;  // threaded counts
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  while (cycles.empty() || elapsed() < a.seconds) {
    std::vector<InstanceResult> bare(inputs.size()), traced(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      RunOptions o;
      o.expect_digest = reference[i];
      std::string tag = "instance " + std::to_string(i) + " cycle " +
                        std::to_string(cycles.size());
      bare[i] = measure(inputs[i], o);
      judge(bare[i], "untraced " + tag);
      same_counts(i, bare[i], "untraced " + tag);
      setups.push_back(bare[i].setup_s * bare[i].scale);
      raw_setups.push_back(bare[i].setup_s);
      scales.push_back(bare[i].scale);
      late.push_back(bare[i].generator_late_ms);
      if (!sim) {
        spread["deliveries"].push_back(static_cast<double>(bare[i].counts.deliveries));
        spread["outputs"].push_back(static_cast<double>(bare[i].counts.outputs));
        spread["events"].push_back(static_cast<double>(bare[i].counts.sim_events));
        spread["control_broadcasts"].push_back(
            static_cast<double>(bare[i].counts.control_broadcasts));
        spread["flushes"].push_back(static_cast<double>(bare[i].counts.flushes));
        spread["checkpoints"].push_back(static_cast<double>(bare[i].counts.checkpoints));
      }
      if (traced_mode) {
        o.traced = true;
        traced[i] = measure(inputs[i], o);
        judge(traced[i], "traced " + tag);
        same_counts(i, traced[i], "traced " + tag);
      }
    }
    std::vector<const InstanceResult*> bp, tp;
    for (const InstanceResult& r : bare) bp.push_back(&r);
    for (const InstanceResult& r : traced) tp.push_back(&r);
    cycles.push_back(traced_mode ? per_layer(w, tp, bp, sim_makespan)
                                 : end_to_end(w, bp, notes));
  }

  // Recount: when a single cycle filled the time, re-run every instance
  // once more (without its post-run check, which reads but never changes
  // the run) so that each instance's exact counts are compared at least
  // once within this invocation.
  if (sim && cycles.size() == 1 && !traced_mode) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      RunOptions o;
      o.verify = false;
      InstanceResult r = run_instance(w, inputs[i], o);
      judge(r, "recount instance " + std::to_string(i));
      same_counts(i, r, "recount instance " + std::to_string(i));
    }
  }

  Values result;
  for (const auto& [name, _] : cycles.front()) {
    std::vector<double> xs;
    for (const Values& c : cycles) xs.push_back(c.at(name));
    result[name] = median(xs);
  }
  if (!traced_mode) {
    result["setup_s"] = median(setups);
    result["wall.setup_s"] = median(raw_setups);
  }
  if (!traced_mode && w.verdict == Verdict::kDigest) {
    result["verdict_s"] = trimmed_mean(ref_verdict, 16);
    result["wall.verdict_s"] = trimmed_mean(raw_ref_verdict, 16);
    notes["verdict_s"] = "merge + audit_trace of the recorded reference runs";
  }

  std::cout << "# cycles=" << cycles.size() << " runs=" << attempted
            << " generator_late_ms_max="
            << num(late.empty() ? 0 : *std::max_element(late.begin(), late.end()))
            << "\n";
  for (const auto& [name, xs] : spread) {
    auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    std::cout << "# count " << name << " min=" << num(*lo)
              << " median=" << num(median(xs)) << " max=" << num(*hi) << "\n";
  }
  if (!scales.empty()) {
    auto [lo, hi] = std::minmax_element(scales.begin(), scales.end());
    std::cout << "# host-speed scale min=" << num(*lo) << " median="
              << num(median(scales)) << " max=" << num(*hi)
              << (scaled ? "" : " (unscaled backend)") << "\n";
  }
  if (sim && expected[0]) {
    for (size_t i = 0; i < expected.size(); ++i)
      std::cout << "# exact instance " << i << " " << expected[i]->str() << "\n";
  }
  const std::vector<Metric>& shown = traced_mode ? kPerLayer : kEndToEnd;
  auto print = [&](const Metric& m) {
    auto it = result.find(m.name);
    if (it == result.end()) return;
    std::cout << "metric " << m.name << " " << num(it->second) << " " << m.unit;
    if (auto n = notes.find(m.name); n != notes.end())
      std::cout << "  (" << n->second << ")";
    if (auto raw = result.find("wall." + m.name); raw != result.end())
      std::cout << "  (unscaled wall clock: " << num(raw->second) << ")";
    std::cout << "\n";
  };
  for (const Metric& m : shown) print(m);
  if (!traced_mode && w.app == AppKind::kClientServer)
    for (const Metric& m : kServiceOnly) print(m);

  if (traced_mode) {
    std::string path = std::string(kWorkDir) + "/spans-" + w.name + ".tsv";
    std::ofstream out(path);
    SpanLog::instance().write_tsv(out);
    std::cout << "# spans of the last traced run: " << path << "\n";
  }

  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : shown) {
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << num(result[m.name]) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}
