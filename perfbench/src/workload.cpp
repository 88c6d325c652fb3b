#include "workload.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "app/workloads.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "core/engine_registry.h"
#include "exec/threaded_cluster.h"
#include "obs/audit.h"
#include "obs/trace_io.h"
#include "timed.h"

namespace perfbench {

using namespace koptlog;

namespace {

/// Virtual time at which the load starts. The threaded clock starts when
/// the host is built, and threaded setup takes under 1 ms at time scale 1,
/// so the first request is never due before setup ends.
constexpr SimTime kLoadStart = 10'000;
/// Virtual time the run continues past the last request before draining.
/// The simulator's drain finishes in virtual time; the threaded drain's
/// quiescence detection runs in wall time while virtual time races on, so
/// there the normal flush/notify cadence must first commit what is in
/// flight, or those commit latencies stretch.
constexpr SimTime kSimTail = 20'000;
constexpr SimTime kThreadedTail = 200'000;

/// The uniform app emits an output on every fifth delivery (its default is
/// every tenth). The small crash-heavy instances then commit between 100
/// and 1000 outputs each, cascading or not, so their tail level (p90) is
/// the same in every run, and a crashed process's next output follows its
/// restart closely.
constexpr UniformParams kUniform{.extra_send_denominator = 4, .output_every = 5};

std::vector<WorkloadSpec> make_table() {
  std::vector<WorkloadSpec> t;
  {
    WorkloadSpec w;
    w.name = "service";
    w.app = AppKind::kClientServer;
    w.k = 2;
    w.crashes = 2;
    w.requests = 4000;
    w.rate_per_s = 2500;
    w.instances = 16;
    w.verdict = Verdict::kDigest;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "audit-trace";
    w.app = AppKind::kUniform;
    w.crashes = 3;
    w.requests = 125;
    w.rate_per_s = 1000;
    w.instances = 64;
    w.verdict = Verdict::kTraceAudit;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "oracle-faults";
    w.app = AppKind::kUniform;
    w.crashes = 4;
    w.requests = 60;
    w.rate_per_s = 1000;
    w.instances = 128;
    w.verdict = Verdict::kOracle;
    t.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "threaded-service";
    w.backend = Backend::kThreaded;
    w.app = AppKind::kClientServer;
    w.k = 2;
    w.crashes = 2;
    w.requests = 800;
    w.rate_per_s = 2500;
    w.instances = 32;
    w.verdict = Verdict::kAudit;
    // Fixed, not sized to the host: every shard shares the benchmark's one
    // pinned CPU (main.cpp), so the workload is the same on every host.
    w.shards = 3;
    t.push_back(w);
  }
  return t;
}

const std::vector<WorkloadSpec>& table() {
  static const std::vector<WorkloadSpec> t = make_table();
  return t;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Return freed heap to the OS and restart the kernel's peak-RSS mark, so
/// the next reading covers one instance rather than the process's history.
void reset_peak_rss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// The kernel's peak-RSS mark; the process-lifetime peak from getrusage if
/// /proc is unavailable.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t output_digest(const std::vector<CommittedOutput>& outs) {
  uint64_t h = 0x6f75747075747321ull;
  for (const CommittedOutput& o : outs) {
    h = hash_combine(h, static_cast<uint64_t>(o.id.src));
    h = hash_combine(h, o.id.seq);
    h = hash_combine(h, static_cast<uint64_t>(o.pid));
    h = hash_combine(h, static_cast<uint64_t>(o.committed_at));
  }
  return h;
}

ClusterConfig cluster_config(const WorkloadSpec& w, const Inputs& in,
                             bool record, bool sim) {
  ClusterConfig cfg;
  cfg.n = w.n;
  cfg.seed = in.cluster_seed;
  cfg.protocol.k = w.k < 0 ? ProtocolConfig::kUnboundedK : w.k;
  cfg.enable_oracle = w.verdict == Verdict::kOracle && sim;
  cfg.record_events = record;
  return cfg;
}

}  // namespace

bool find_workload(const std::string& name, WorkloadSpec& out) {
  for (const WorkloadSpec& w : table()) {
    if (w.name == name) {
      out = w;
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const WorkloadSpec& w : table()) v.push_back(w.name);
    return v;
  }();
  return names;
}

std::string Counts::str() const {
  std::ostringstream os;
  os << "sim_events=" << sim_events << " deliveries=" << deliveries
     << " outputs=" << outputs << " control_broadcasts=" << control_broadcasts
     << " flushes=" << flushes << " sync_writes=" << sync_writes
     << " checkpoints=" << checkpoints << " digest=" << std::hex << digest;
  return os.str();
}

Inputs make_inputs(const WorkloadSpec& w, uint64_t seed, int index) {
  uint64_t h = fnv1a64(w.name.data(), w.name.size());
  h = hash_combine(hash_combine(h, seed), static_cast<uint64_t>(index));
  Inputs in;
  in.cluster_seed = h;
  Rng rng = Rng(h).fork("perfbench-inputs");

  const SimTime start = kLoadStart;
  const double mean_gap_us = 1e6 / w.rate_per_s;
  SimTime t = start;
  in.requests.reserve(static_cast<size_t>(w.requests));
  for (int i = 0; i < w.requests; ++i) {
    // Poisson arrivals; due times stay distinct so a reply (which carries
    // its request's due time) names exactly one request.
    t += std::max<SimTime>(
        1, static_cast<SimTime>(rng.next_exponential(mean_gap_us)));
    Request r;
    r.due = t;
    r.to = static_cast<ProcessId>(rng.next_below(static_cast<uint64_t>(w.n)));
    if (w.app == AppKind::kClientServer) {
      r.payload.kind = kRequest;
      r.payload.a = static_cast<int64_t>(rng.next_u64() >> 1);
      r.payload.b = i;
      r.payload.c = t;  // birth time, echoed in the reply output
    } else {
      r.payload.kind = kToken;
      r.payload.a = static_cast<int64_t>(rng.next_u64());
      r.payload.b = i;
      r.payload.ttl = 7;
    }
    in.requests.push_back(r);
  }
  in.load_end = t;

  // Crashes of distinct processes, one per equal slot of the middle half
  // of the load window, so every crash lands under load and leaves load
  // behind it to measure recovery against.
  std::vector<ProcessId> pids(static_cast<size_t>(w.n));
  for (int p = 0; p < w.n; ++p) pids[static_cast<size_t>(p)] = p;
  const SimTime span = in.load_end - start;
  for (int i = 0; i < w.crashes; ++i) {
    auto j = static_cast<size_t>(i) +
             rng.next_below(static_cast<uint64_t>(w.n - i));
    std::swap(pids[static_cast<size_t>(i)], pids[j]);
    SimTime lo = start + span / 5 + span / 2 * i / w.crashes;
    SimTime hi = start + span / 5 + span / 2 * (i + 1) / w.crashes;
    Crash c;
    c.at = lo + static_cast<SimTime>(
                    rng.next_below(static_cast<uint64_t>(hi - lo)));
    c.pid = pids[static_cast<size_t>(i)];
    in.crashes.push_back(c);
  }
  return in;
}

InstanceResult run_instance(const WorkloadSpec& w, const Inputs& in,
                            const RunOptions& opt) {
  InstanceResult r;
  const bool sim = w.backend == Backend::kSim || opt.force_sim;
  const bool record = opt.record || w.verdict == Verdict::kTraceAudit ||
                      w.verdict == Verdict::kAudit;
  const bool reference = opt.record && w.verdict == Verdict::kDigest;
  // A traced run replaces the previous traced run's spans; untraced runs
  // leave them alone, so the last traced run's spans are still in memory
  // when the benchmark writes them out at exit.
  SpanLog& spans = SpanLog::instance();
  if (opt.traced) {
    spans.clear();
    spans.local();  // the calling thread registers as thread 0
    spans.enable(true);
  }

  ClusterHost::AppFactory app = w.app == AppKind::kClientServer
                                    ? make_client_server_app({})
                                    : make_uniform_app(kUniform);
  ClusterHost::EngineFactory engine =
      EngineRegistry::instance().find("kopt")->factory;
  if (opt.traced) {
    app = timed_apps(std::move(app));
    engine = timed_engines(std::move(engine));
  }
  const ClusterConfig cfg = cluster_config(w, in, record, sim);

  reset_peak_rss();
  try {
    std::unique_ptr<ClusterHost> host;
    Cluster* cluster = nullptr;
    ThreadedCluster* threaded = nullptr;

    // ---- setup: build, start, schedule every injection and crash ----
    double t0 = wall_s();
    if (sim) {
      auto c = std::make_unique<Cluster>(cfg, app, engine);
      cluster = c.get();
      host = std::move(c);
      r.shards = 1;
    } else {
      ThreadedOptions topt;
      topt.shards = w.shards;
      auto c = std::make_unique<ThreadedCluster>(cfg, topt, app, engine);
      threaded = c.get();
      host = std::move(c);
      r.shards = threaded->shards();
    }
    {
      ScopedSpan s(SpanName::kStart);
      host->start();
    }
    for (const Request& q : in.requests) host->inject_at(q.due, q.to, q.payload);
    for (const Crash& c : in.crashes) host->fail_at(c.at, c.pid);
    double t1 = wall_s();
    r.setup_s = t1 - t0;
    if (!in.requests.empty()) {
      r.generator_late_ms = std::max<double>(
          0, static_cast<double>(host->now_us() - in.requests.front().due) /
                 1000.0);
    }

    // ---- run phase ----
    double c0 = cpu_s();
    {
      ScopedSpan s(SpanName::kRunFor);
      SimTime until = in.load_end + (sim ? kSimTail : kThreadedTail);
      if (host->now_us() < until) host->run_for(until - host->now_us());
    }
    {
      ScopedSpan s(SpanName::kDrain);
      host->drain();
    }
    const SimTime run_end = host->now_us();
    {
      ScopedSpan s(SpanName::kShutdown);
      host->shutdown();
    }
    double t2 = wall_s();
    r.cpu_s = cpu_s() - c0;
    r.run_s = t2 - t1;

    // ---- verdict ----
    const std::vector<CommittedOutput>& outs = host->outputs();
    r.counts.digest = output_digest(outs);
    double v0 = wall_s();
    auto fail = [&r](std::string why) {
      if (r.ok) r.why = std::move(why);
      r.ok = false;
    };
    auto audit = [&](const Trace& trace) {
      AuditReport rep;
      {
        ScopedSpan s(SpanName::kAudit);
        rep = audit_trace(trace);
      }
      if (!rep.ok()) fail("audit: " + rep.summary());
    };
    if (record) r.recorded_events = static_cast<int64_t>(host->recording()->total_events());
    if (w.verdict == Verdict::kDigest && opt.expect_digest != 0 &&
        r.counts.digest != opt.expect_digest) {
      fail("committed-output digest differs from the audited reference run");
    }
    if (opt.verify && w.verdict == Verdict::kOracle && cluster != nullptr) {
      Oracle::Report rep;
      {
        ScopedSpan s(SpanName::kOracleVerify);
        rep = cluster->oracle()->verify(/*strict_thm4=*/true);
      }
      r.oracle_intervals = static_cast<int64_t>(rep.intervals);
      if (!rep.ok) fail("oracle: " + rep.summary());
    }
    if (opt.verify && record && (w.verdict == Verdict::kAudit || reference)) {
      Trace trace;
      trace.n = cfg.n;
      {
        ScopedSpan s(SpanName::kMerged);
        trace.events = host->recording()->merged();
      }
      audit(trace);
    }
    if (opt.verify && record && w.verdict == Verdict::kTraceAudit) {
      // The koptlog_sim --trace-out + koptlog_audit path.
      std::string path = std::string(kWorkDir) + "/trace.jsonl";
      std::vector<ProtocolEvent> merged;
      {
        ScopedSpan s(SpanName::kMerged);
        merged = host->recording()->merged();
      }
      {
        ScopedSpan s(SpanName::kTraceWrite);
        std::ofstream out(path);
        write_trace_jsonl(cfg.n, merged, out);
        if (!out.flush()) fail("cannot write " + path);
      }
      merged = {};
      r.trace_bytes = static_cast<int64_t>(std::filesystem::file_size(path));
      Trace back;
      std::vector<std::string> errors;
      {
        ScopedSpan s(SpanName::kTraceRead);
        std::ifstream is(path);
        back = read_trace_jsonl(is, errors);
      }
      std::filesystem::remove(path);
      if (!errors.empty()) fail("trace read-back: " + errors.front());
      if (static_cast<int64_t>(back.events.size()) != r.recorded_events) {
        fail("trace read-back holds " + std::to_string(back.events.size()) +
             " events, recorded " + std::to_string(r.recorded_events));
      }
      audit(back);
    }
    r.verdict_s = wall_s() - v0;
    r.peak_rss_mb = peak_rss_mb();

    // ---- measurements ----
    r.stats = host->stats();
    const Stats& st = r.stats;
    r.counts.sim_events = cluster != nullptr
                              ? static_cast<int64_t>(cluster->sim().events_executed())
                              : static_cast<int64_t>(threaded->events_executed());
    r.counts.deliveries = st.counter("msgs.delivered");
    r.counts.outputs = static_cast<int64_t>(outs.size());
    r.counts.control_broadcasts =
        st.counter("log_progress.sent") + st.counter("announce.sent");
    r.counts.flushes = st.counter("storage.async_flushes");
    r.counts.sync_writes = st.counter("storage.sync_writes");
    r.counts.checkpoints = st.counter("storage.checkpoints_taken");
    for (const CommittedOutput& o : outs)
      r.makespan_us = std::max(r.makespan_us, o.committed_at);

    r.requests = static_cast<int>(in.requests.size());
    if (w.app == AppKind::kClientServer) {
      std::vector<bool> answered(in.requests.size(), false);
      for (const CommittedOutput& o : outs) {
        auto it = std::lower_bound(
            in.requests.begin(), in.requests.end(), o.payload.c,
            [](const Request& q, SimTime due) { return q.due < due; });
        if (it == in.requests.end() || it->due != o.payload.c) continue;
        auto idx = static_cast<size_t>(it - in.requests.begin());
        if (answered[idx]) continue;
        answered[idx] = true;
        r.request_latency_us.push_back(
            static_cast<double>(o.committed_at - it->due));
      }
      r.answered = static_cast<int>(r.request_latency_us.size());
    }
    for (const Crash& c : in.crashes) {
      SimTime first = -1;
      for (const CommittedOutput& o : outs) {
        if (o.pid == c.pid && o.committed_at > c.at &&
            (first < 0 || o.committed_at < first)) {
          first = o.committed_at;
        }
      }
      if (first < 0) {
        // Never served again: count the crash as lasting until the run ended.
        ++r.unserved;
        first = std::max(run_end, c.at);
      }
      r.recovery_us.push_back(static_cast<double>(first - c.at));
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.why = std::string("run aborted: ") + e.what();
  }
  if (opt.traced) {
    spans.enable(false);
    r.spans = spans.totals(/*main_thread=*/0, &r.worker_root_s);
  }
  return r;
}

}  // namespace perfbench
