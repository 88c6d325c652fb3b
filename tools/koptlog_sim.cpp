// koptlog_sim — scenario driver CLI: run any workload under any recovery
// configuration, on either execution backend, and print metrics, the
// correctness verdict, and (optionally) a space-time diagram of the run.
//
//   koptlog_sim --n 6 --k 2 --workload clientserver --injections 200
//               --failures 3 --seed 7 --dot run.dot --ascii
//   koptlog_sim --backend threaded --shards 3 --time-scale 0.05
//               --failures 2 --trace-out run.jsonl
//   dot -Tsvg run.dot -o run.svg     # your own Figure 1
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "app/workloads.h"
#include "core/cluster.h"
#include "core/engine_registry.h"
#include "core/failure_injector.h"
#include "core/metrics.h"
#include "core/timeline.h"
#include "exec/backend.h"
#include "obs/audit.h"
#include "obs/collector.h"
#include "obs/event_sink.h"
#include "obs/export.h"
#include "obs/health/health.h"
#include "obs/health/health_io.h"
#include "obs/health/health_sampler.h"
#include "obs/live_audit.h"
#include "obs/ring_recorder.h"
#include "obs/trace_io.h"

using namespace koptlog;

namespace {

struct Args {
  int n = 4;
  int k = -1;  // -1 = N (traditional optimistic)
  uint64_t seed = 1;
  std::string workload = "uniform";
  std::string engine = "kopt";  // kopt | direct | pessimistic | strom-yemini
  std::string backend = "sim";  // sim | threaded
  // --shards, --time-scale, --mailbox-capacity, --announce-fanout; the
  // CLI runs 10x faster than nominal by default.
  ThreadedOptions threaded{.time_scale = 0.1};
  int injections = 100;
  int ttl = 7;
  int failures = 0;
  SimTime horizon_ms = 1'000;
  SimTime flush_ms = 5;
  SimTime notify_ms = 10;
  SimTime checkpoint_ms = 100;
  SimTime sync_us = 500;
  std::string storage = "model";  // model | disk
  std::string storage_dir;
  SimTime group_commit_us = 300;
  bool fifo = false;
  bool reliable = false;
  bool no_gc = false;
  bool no_oracle = false;
  bool ascii = false;
  bool stats = false;
  bool list_engines = false;
  bool list_backends = false;
  std::string dot_file;
  std::string trace_out;
  std::string perfetto_out;
  std::string metrics_out;
  std::string record;  // "" = auto | vector | ring
  size_t ring_capacity = 4096;
  bool live_audit = false;
  int64_t metrics_interval_us = 1'000'000;
  std::string health_out;
  int64_t health_interval_us = 100'000;
  bool health_interval_set = false;
  bool list_health = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::cout
      << "usage: " << argv0 << " [options]\n"
      << "  --engine " << EngineRegistry::instance().names_joined()
      << "   (default kopt)\n"
      << "  --backend sim|threaded    execution backend (default sim)\n"
      << "  --workload uniform|pipeline|clientserver        (default uniform)\n"
      << "  --n INT           processes (default 4)\n"
      << "  --k INT           degree of optimism; -1 = N (default -1)\n"
      << "  --seed INT        run seed (default 1)\n"
      << "  --shards INT      threaded backend: worker threads (default 2)\n"
      << "  --time-scale F    threaded backend: real us per virtual us\n"
      << "                    (default 0.1 = 10x faster than nominal)\n"
      << "  --mailbox-capacity INT    threaded backend: per-shard occupancy\n"
      << "                    bound; injections block while a shard is full\n"
      << "                    (default 0 = unbounded)\n"
      << "  --announce-fanout INT     threaded backend: announcement\n"
      << "                    dissemination tree degree; each shard forwards\n"
      << "                    to at most D child shards instead of the origin\n"
      << "                    fanning out to all (default 0 = flat fan-out)\n"
      << "  --injections INT  environment requests (default 100)\n"
      << "  --ttl INT         uniform-workload hop budget (default 7)\n"
      << "  --failures INT    random crashes during the run (default 0)\n"
      << "  --horizon-ms INT  injection window (default 1000)\n"
      << "  --flush-ms/--notify-ms/--checkpoint-ms  logging cadence\n"
      << "  --sync-us INT     synchronous stable-storage write cost\n"
      << "  --storage model|disk      stable-storage backend (default model:\n"
      << "                    simulated costs only; disk = real segmented\n"
      << "                    on-disk log with group commit)\n"
      << "  --storage-dir DIR durable backend root; each process writes\n"
      << "                    DIR/p<pid>/ (required with --storage disk)\n"
      << "  --group-commit-us INT     disk backend: fsync coalescing window\n"
      << "                    (default 300)\n"
      << "  --fifo --reliable --no-gc --no-oracle   toggles\n"
      << "  --ascii           print a space-time diagram (sim backend)\n"
      << "  --dot FILE        write a Graphviz space-time diagram (sim)\n"
      << "  --stats           dump every counter/histogram\n"
      << "  --list-engines    print registered engines and exit\n"
      << "  --list-backends   print execution backends and exit\n"
      << "  --trace-out FILE.jsonl    record typed protocol events and write\n"
      << "                            the JSONL trace (koptlog_audit input)\n"
      << "  --perfetto-out FILE.json  record events and write a Chrome\n"
      << "                            trace-event file (open in\n"
      << "                            ui.perfetto.dev or chrome://tracing)\n"
      << "  --metrics-out FILE.txt    write every counter/histogram in\n"
      << "                            Prometheus text format\n"
      << "  --record vector|ring      recorder storage: unbounded vectors\n"
      << "                            merged post hoc (default), or bounded\n"
      << "                            SPSC rings drained live by a collector\n"
      << "                            thread (streaming JSONL, periodic\n"
      << "                            metrics snapshots, live audit)\n"
      << "  --ring-capacity INT       per-process ring slots (default 4096)\n"
      << "  --live-audit      verify Theorems 1-4 online as events stream\n"
      << "                    (implies --record ring); first violation is\n"
      << "                    printed immediately and the exit code is 1\n"
      << "  --metrics-interval-us INT live snapshot / flush cadence for the\n"
      << "                    collector's sinks (default 1000000)\n"
      << "  --health-out FILE.jsonl   append runtime health telemetry (per-\n"
      << "                    shard drain latency, mailbox occupancy, fsync\n"
      << "                    latency, collector lag) as schema-versioned\n"
      << "                    JSONL samples; view with koptlog_top\n"
      << "  --health-interval-us INT  health sampling tick (default 100000;\n"
      << "                    requires --health-out)\n"
      << "  --list-health     print every health metric the instrumentation\n"
      << "                    emits (domain, kind, meaning) and exit\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  // Both "--flag value" and "--flag=value" spellings are accepted.
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
    if (f == "--engine") a.engine = need(i);
    else if (f == "--backend") a.backend = need(i);
    else if (f == "--workload") a.workload = need(i);
    else if (f == "--n") a.n = std::stoi(need(i));
    else if (f == "--k") a.k = std::stoi(need(i));
    else if (f == "--seed") a.seed = std::stoull(need(i));
    else if (f == "--shards") a.threaded.shards = std::stoi(need(i));
    else if (f == "--time-scale") a.threaded.time_scale = std::stod(need(i));
    else if (f == "--mailbox-capacity")
      a.threaded.mailbox_capacity = static_cast<size_t>(std::stoull(need(i)));
    else if (f == "--announce-fanout")
      a.threaded.announce_fanout = std::stoi(need(i));
    else if (f == "--injections") a.injections = std::stoi(need(i));
    else if (f == "--ttl") a.ttl = std::stoi(need(i));
    else if (f == "--failures") a.failures = std::stoi(need(i));
    else if (f == "--horizon-ms") a.horizon_ms = std::stoll(need(i));
    else if (f == "--flush-ms") a.flush_ms = std::stoll(need(i));
    else if (f == "--notify-ms") a.notify_ms = std::stoll(need(i));
    else if (f == "--checkpoint-ms") a.checkpoint_ms = std::stoll(need(i));
    else if (f == "--sync-us") a.sync_us = std::stoll(need(i));
    else if (f == "--storage") a.storage = need(i);
    else if (f == "--storage-dir") a.storage_dir = need(i);
    else if (f == "--group-commit-us") a.group_commit_us = std::stoll(need(i));
    else if (f == "--fifo") a.fifo = true;
    else if (f == "--reliable") a.reliable = true;
    else if (f == "--no-gc") a.no_gc = true;
    else if (f == "--no-oracle") a.no_oracle = true;
    else if (f == "--ascii") a.ascii = true;
    else if (f == "--dot") a.dot_file = need(i);
    else if (f == "--stats") a.stats = true;
    else if (f == "--list-engines") a.list_engines = true;
    else if (f == "--list-backends") a.list_backends = true;
    else if (f == "--trace-out") a.trace_out = need(i);
    else if (f == "--perfetto-out") a.perfetto_out = need(i);
    else if (f == "--metrics-out") a.metrics_out = need(i);
    else if (f == "--record") a.record = need(i);
    else if (f == "--ring-capacity")
      a.ring_capacity = static_cast<size_t>(std::stoull(need(i)));
    else if (f == "--live-audit") a.live_audit = true;
    else if (f == "--metrics-interval-us")
      a.metrics_interval_us = std::stoll(need(i));
    else if (f == "--health-out") a.health_out = need(i);
    else if (f == "--health-interval-us") {
      a.health_interval_us = std::stoll(need(i));
      a.health_interval_set = true;
    }
    else if (f == "--list-health") a.list_health = true;
    else usage(argv[0]);
  }
  return a;
}

/// Fail fast on unwritable output paths: a long run must not end in a
/// silently truncated (or never-created) file. Probing creates/truncates
/// the file, which is what the real write would do anyway.
bool probe_writable(const std::string& path, const char* flag) {
  if (path.empty()) return true;
  std::ofstream probe(path);
  if (!probe) {
    std::cerr << "error: " << flag << " path '" << path
              << "' is not writable\n";
    return false;
  }
  return true;
}

void list_engines() {
  for (const auto& [name, entry] : EngineRegistry::instance().entries()) {
    std::cout << "  " << name << std::string(name.size() < 14 ? 14 - name.size() : 1, ' ')
              << entry.description << "\n";
  }
}

void list_backends() {
  for (const BackendInfo& b : backend_table()) {
    std::cout << "  " << b.name
              << std::string(b.name.size() < 14 ? 14 - b.name.size() : 1, ' ')
              << b.description << "\n";
  }
}

void list_health() {
  for (const HealthMetricInfo& m : health_metric_catalog()) {
    std::string key = m.domain + "/" + m.metric;
    std::cout << "  " << key
              << std::string(key.size() < 34 ? 34 - key.size() : 1, ' ')
              << m.kind << std::string(m.kind.size() < 10 ? 10 - m.kind.size() : 1, ' ')
              << m.help << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse(argc, argv);
  if (a.list_engines || a.list_backends || a.list_health) {
    if (a.list_engines) {
      std::cout << "engines:\n";
      list_engines();
    }
    if (a.list_backends) {
      std::cout << "backends:\n";
      list_backends();
    }
    if (a.list_health) {
      std::cout << "health metrics (--health-out sidecar / koptlog_top):\n";
      list_health();
    }
    return 0;
  }
  if (a.health_interval_set && a.health_out.empty()) {
    std::cerr << "error: --health-interval-us requires --health-out (where "
                 "should the samples go?)\n";
    return 2;
  }
  if (!a.health_out.empty() && a.health_interval_us <= 0) {
    std::cerr << "error: --health-interval-us must be positive\n";
    return 2;
  }
  if (!probe_writable(a.trace_out, "--trace-out") ||
      !probe_writable(a.perfetto_out, "--perfetto-out") ||
      !probe_writable(a.metrics_out, "--metrics-out") ||
      !probe_writable(a.health_out, "--health-out") ||
      !probe_writable(a.dot_file, "--dot")) {
    return 2;
  }

  const EngineRegistry::Entry* engine =
      EngineRegistry::instance().find(a.engine);
  if (engine == nullptr) {
    std::cerr << "error: unknown engine '" << a.engine << "' (have: "
              << EngineRegistry::instance().names_joined(' ') << ")";
    std::vector<std::string> near = EngineRegistry::instance().suggestions(a.engine);
    if (!near.empty()) {
      std::cerr << " — did you mean ";
      for (size_t i = 0; i < near.size(); ++i) {
        std::cerr << (i ? " or " : "") << "'" << near[i] << "'";
      }
      std::cerr << "?";
    }
    std::cerr << "\n";
    return 2;
  }
  if (!is_backend(a.backend)) {
    std::cerr << "error: unknown backend '" << a.backend << "' (have:";
    for (const BackendInfo& b : backend_table()) std::cerr << " " << b.name;
    std::cerr << "); see --list-backends\n";
    return 2;
  }
  if (a.threaded.announce_fanout < 0) {
    std::cerr << "error: --announce-fanout must be >= 0 (0 = flat fan-out)\n";
    return 2;
  }
  bool threaded = a.backend == "threaded";

  if (!a.record.empty() && a.record != "vector" && a.record != "ring") {
    std::cerr << "error: unknown --record mode '" << a.record
              << "' (have: vector ring)\n";
    return 2;
  }
  if (a.record == "vector" && a.live_audit) {
    std::cerr << "error: --live-audit needs the streaming pipeline; drop "
                 "--record=vector (or use koptlog_audit on the written "
                 "trace)\n";
    return 2;
  }
  const bool ring = a.record == "ring" || a.live_audit;
  if (ring && !a.perfetto_out.empty()) {
    std::cerr << "error: --perfetto-out needs the full in-memory trace; it "
                 "cannot be combined with --record=ring (the rings only hold "
                 "a bounded window)\n";
    return 2;
  }

  ClusterConfig cfg;
  cfg.n = a.n;
  cfg.seed = a.seed;
  cfg.fifo = a.fifo;
  cfg.enable_oracle = !a.no_oracle && !threaded;
  if (engine->configure) {
    engine->configure(cfg);
  } else {
    cfg.protocol.k = a.k < 0 ? ProtocolConfig::kUnboundedK : a.k;
  }
  cfg.protocol.flush_interval_us = a.flush_ms * 1000;
  cfg.protocol.notify_interval_us = a.notify_ms * 1000;
  cfg.protocol.checkpoint_interval_us = a.checkpoint_ms * 1000;
  cfg.protocol.storage.sync_write_us = a.sync_us;
  if (a.storage != "model" && a.storage != "disk") {
    std::cerr << "error: unknown storage backend '" << a.storage
              << "' (have: model disk)\n";
    return 2;
  }
  if (a.storage == "disk" && a.storage_dir.empty()) {
    std::cerr << "error: --storage disk requires --storage-dir\n";
    return 2;
  }
  // Health telemetry registry: declared before the host so the cells the
  // backends attach outlive them; the sampler (inside the sink, declared
  // after the host) is stopped before either is destroyed.
  const bool health_on = !a.health_out.empty();
  HealthRegistry health_registry;

  cfg.protocol.storage_backend.backend = a.storage;
  cfg.protocol.storage_backend.dir = a.storage_dir;
  cfg.protocol.storage_backend.group_commit_us = a.group_commit_us;
  cfg.protocol.storage_backend.threaded_io = threaded && a.storage == "disk";
  if (health_on) cfg.protocol.storage_backend.health = &health_registry;
  cfg.protocol.reliable_delivery = a.reliable;
  cfg.protocol.garbage_collect = !a.no_gc;
  cfg.record_events = ring || !a.trace_out.empty() || !a.perfetto_out.empty();
  // The threaded backend has no oracle: unless the user opted out, record
  // events so the run can be (and is, below) audited.
  if (threaded && !a.no_oracle) cfg.record_events = true;
  if (ring) {
    cfg.recording.mode = RecordMode::kRing;
    cfg.recording.ring_capacity = a.ring_capacity;
  }
  // In ring mode the recorders only retain a bounded residual window, so a
  // post-hoc audit of merged() would be vacuous: whenever a verdict is
  // wanted, run it online instead.
  const bool want_live_audit =
      ring && (a.live_audit || (threaded && !a.no_oracle));

  ClusterHost::AppFactory app =
      a.workload == "pipeline"       ? make_pipeline_app({})
      : a.workload == "clientserver" ? make_client_server_app({})
                                     : make_uniform_app({});

  BackendOptions bopt{a.backend, a.threaded};
  if (health_on) bopt.threaded.health = &health_registry;
  std::unique_ptr<ClusterHost> host =
      make_backend_host(bopt, cfg, app, engine->factory);
  ClusterHost& cluster = *host;

  // Streaming pipeline: collector thread draining the ring recorders into
  // the attached sinks, started before any event is produced.
  std::unique_ptr<LiveAudit> live_audit;
  std::unique_ptr<JsonlWriterSink> jsonl_sink;
  std::unique_ptr<MetricsSnapshotSink> metrics_sink;
  std::unique_ptr<LiveAuditSink> audit_sink;
  std::unique_ptr<HealthTimeseriesSink> health_sink;
  std::unique_ptr<EventCollector> collector;
  if (health_on) {
    // Ctor opens the sidecar and starts the sampler thread; destroyed (and
    // therefore stopped) before the host whose cells its probes read.
    HealthSampler::Options hopt;
    hopt.interval_us = a.health_interval_us;
    health_sink = std::make_unique<HealthTimeseriesSink>(
        health_registry, hopt, a.health_out);
    if (!health_sink->ok()) {
      std::cerr << "error: cannot write --health-out path '" << a.health_out
                << "'\n";
      return 2;
    }
  }
  if (ring) {
    std::vector<EventSink*> sinks;
    if (!a.trace_out.empty()) {
      jsonl_sink = std::make_unique<JsonlWriterSink>(a.trace_out, cfg.n);
      if (!jsonl_sink->ok()) {
        std::cerr << "error: cannot write " << a.trace_out << "\n";
        return 2;
      }
      sinks.push_back(jsonl_sink.get());
    }
    metrics_sink = std::make_unique<MetricsSnapshotSink>(a.metrics_out);
    if (health_on) {
      // Live Prometheus snapshots carry the health series too.
      metrics_sink->set_extra([&health_registry](std::ostream& os) {
        write_health_prometheus(health_registry.sample(0), os);
      });
    }
    sinks.push_back(metrics_sink.get());
    if (want_live_audit) {
      live_audit = std::make_unique<LiveAudit>(cfg.n);
      audit_sink = std::make_unique<LiveAuditSink>(*live_audit,
                                                   /*announce=*/true);
      sinks.push_back(audit_sink.get());
    }
    if (health_sink != nullptr) sinks.push_back(health_sink.get());
    EventCollector::Options copt;
    copt.tick_interval_us = a.metrics_interval_us;
    collector = std::make_unique<EventCollector>(*cluster.recording_mut(),
                                                 std::move(sinks), copt);
    if (health_on) {
      // Observe the observability pipeline itself: ring backlog and how far
      // the collector trails the producers. All lock-free reads.
      HealthDomain* dom = health_registry.domain("obs");
      Recording* rec = cluster.recording_mut();
      const int n = cfg.n;
      auto accepted = [rec, n] {
        uint64_t total = 0;
        for (int p = 0; p < n; ++p)
          total += static_cast<uint64_t>(rec->ring(p)->size());
        return total;
      };
      dom->probe_gauge("ring.occupancy", [rec, n] {
        int64_t total = 0;
        for (int p = 0; p < n; ++p)
          total += static_cast<int64_t>(rec->ring(p)->occupancy());
        return total;
      });
      dom->probe_counter("ring.dropped",
                         [rec] { return rec->total_dropped(); });
      dom->probe_counter("ring.accepted", accepted);
      EventCollector* coll = collector.get();
      dom->probe_counter("collector.collected",
                         [coll] { return coll->events_collected(); });
      dom->probe_gauge("collector.lag", [coll, accepted] {
        uint64_t acc = accepted();
        uint64_t got = coll->events_collected();
        return acc > got ? static_cast<int64_t>(acc - got) : 0;
      });
    }
    collector->start();
  }

  cluster.start();

  SimTime load_end = a.horizon_ms * 1000;
  if (a.workload == "pipeline") {
    inject_pipeline_load(cluster, a.injections, 1'000, load_end);
  } else if (a.workload == "clientserver") {
    inject_client_requests(cluster, a.injections, 1'000, load_end, a.seed + 3);
  } else {
    inject_uniform_load(cluster, a.injections, 1'000, load_end, a.ttl,
                        a.seed + 1);
  }
  if (a.failures > 0) {
    apply_failure_plan(cluster,
                       FailurePlan::random(Rng(a.seed).fork("cli"), a.n,
                                           a.failures, load_end / 10,
                                           load_end + load_end / 4));
  }

  cluster.run_for(load_end * 3);
  cluster.drain();
  cluster.shutdown();  // joins shard workers (no-op on the simulator)

  // Stop the health sampler while the host (whose cells the probes read) is
  // still alive. In ring mode the collector's close() does this below; the
  // direct call covers recorder-less runs and is idempotent.
  if (health_sink != nullptr && collector == nullptr) health_sink->close();

  if (collector != nullptr) {
    collector->stop();  // producers quiesced: drains the tail, final tick
    Stats& st = cluster.stats();
    st.merge(metrics_sink->stats());
    Recording& rec = *cluster.recording_mut();
    uint64_t max_occ = 0;
    for (int p = 0; p < cfg.n; ++p) {
      max_occ = std::max(max_occ, (uint64_t)rec.ring(p)->max_occupancy());
    }
    st.inc("obs.ring_capacity", (int64_t)rec.ring(0)->capacity());
    st.inc("obs.ring_max_occupancy", (int64_t)max_occ);
    st.inc("obs.collected_events", (int64_t)collector->events_collected());
  }

  std::cout << "engine=" << a.engine << " backend=" << a.backend;
  if (threaded) std::cout << " shards=" << a.threaded.shards;
  std::cout << " workload=" << a.workload
            << " n=" << a.n << " seed=" << a.seed << "\n"
            << "  delivered          " << cluster.stats().counter("msgs.delivered")
            << "\n  released           " << cluster.stats().counter("msgs.released")
            << "\n  outputs committed  " << cluster.outputs().size()
            << "\n  crashes/restarts   " << cluster.stats().counter("crash.count")
            << "/" << cluster.stats().counter("restart.count")
            << "\n  peer rollbacks     " << cluster.stats().counter("rollback.count")
            << "\n  orphans discarded  "
            << cluster.stats().counter("msgs.discarded_orphan_recv")
            << "\n  piggyback mean B   "
            << format_double(cluster.stats().histogram("msg.piggyback_bytes").mean(), 1)
            << "\n  commit p99 us      "
            << format_double(
                   cluster.stats().histogram("output.commit_latency_us").p99(), 0)
            << "\n  makespan ms        " << cluster.now_us() / 1000 << "\n";
  if (threaded) {
    // End-of-run mailbox health: how the cross-shard spine behaved. The
    // same counters appear in --metrics-out's Prometheus dump.
    const Stats& st = cluster.stats();
    std::cout << "  mailbox            capacity=" << a.threaded.mailbox_capacity
              << " max_occupancy=" << st.counter("mailbox.max_occupancy")
              << "\n                     batches=" << st.counter("mailbox.drains")
              << " max_batch=" << st.counter("mailbox.max_drain_batch")
              << " wakeups=" << st.counter("mailbox.wakeups")
              << "\n                     stalls=" << st.counter("mailbox.producer_stalls")
              << " stall_us=" << st.counter("mailbox.producer_stall_us")
              << " soft_overflows=" << st.counter("mailbox.soft_overflows")
              << "\n";
  }

  if (a.stats) print_stats(cluster.stats(), std::cout);

  if (ring) {
    const Recording& rec = *cluster.recording();
    std::cout << "  ring               capacity=" << a.ring_capacity
              << " max_occupancy="
              << cluster.stats().counter("obs.ring_max_occupancy")
              << " collected=" << collector->events_collected()
              << " dropped=" << rec.total_dropped() << "\n";
  }

  if (!a.trace_out.empty()) {
    if (ring) {
      // The collector already streamed the trace; nothing left to write.
      std::cout << "wrote " << a.trace_out << " ("
                << jsonl_sink->events_written()
                << " events, streamed; verify: koptlog_audit " << a.trace_out
                << ")\n";
    } else if (write_trace_jsonl_file(*cluster.recording(), a.trace_out)) {
      std::cout << "wrote " << a.trace_out << " ("
                << cluster.recording()->total_events()
                << " events; verify: koptlog_audit " << a.trace_out << ")\n";
    } else {
      std::cerr << "error: cannot write " << a.trace_out << "\n";
      return 2;
    }
  }
  if (!a.perfetto_out.empty()) {
    std::ofstream out(a.perfetto_out);
    if (!out) {
      std::cerr << "error: cannot write " << a.perfetto_out << "\n";
      return 2;
    }
    write_perfetto_json(*cluster.recording(), out);
    std::cout << "wrote " << a.perfetto_out
              << " (open in ui.perfetto.dev or chrome://tracing)\n";
  }
  if (!a.metrics_out.empty()) {
    // Atomic replace (tmp + rename): a concurrent scraper — or the live
    // snapshot sink's reader — never observes a torn metrics file.
    std::string werr;
    bool ok = write_file_atomic(
        a.metrics_out,
        [&](std::ostream& out) {
          write_prometheus_text(cluster.stats(), out);
          if (health_on)
            write_health_prometheus(health_registry.sample(0), out);
        },
        werr);
    if (!ok) {
      std::cerr << "error: " << werr << "\n";
      return 2;
    }
    std::cout << "wrote " << a.metrics_out << "\n";
  }
  if (health_sink != nullptr) {
    std::cout << "wrote " << a.health_out << " ("
              << health_sink->sampler().ticks()
              << " health samples; view: koptlog_top --once " << a.health_out
              << ")\n";
  }

  int rc = 0;
  auto* sim_cluster = dynamic_cast<Cluster*>(host.get());
  if (live_audit != nullptr) {
    AuditReport rep = live_audit->report();
    std::cout << "live audit: " << rep.summary() << "\n";
    if (!rep.ok()) {
      if (!live_audit->first_violation().empty()) {
        std::cout << "  first violation: " << live_audit->first_violation()
                  << "\n";
      }
      rc = 1;
    }
  }
  if (sim_cluster != nullptr && sim_cluster->oracle() != nullptr) {
    Oracle::Report rep = sim_cluster->oracle()->verify(/*strict_thm4=*/true);
    std::cout << "oracle: " << rep.summary() << "\n";
    if (!rep.ok) rc = 1;
  } else if (!ring && cluster.recording() != nullptr) {
    // No single-threaded ground truth on the threaded backend: re-verify
    // Theorems 1-4 from the merged per-process event streams instead.
    Trace trace;
    trace.n = cluster.config().n;
    trace.events = cluster.recording()->merged();
    AuditReport rep = audit_trace(trace);
    std::cout << "audit: " << rep.summary() << "\n";
    rc = rep.ok() ? 0 : 1;
  }

  if (a.ascii && sim_cluster != nullptr && sim_cluster->oracle() != nullptr) {
    std::cout << "\n" << to_ascii(*sim_cluster->oracle());
  }
  if (!a.dot_file.empty() && sim_cluster != nullptr &&
      sim_cluster->oracle() != nullptr) {
    std::ofstream out(a.dot_file);
    if (!out || !(out << to_dot(*sim_cluster->oracle())) || !out.flush()) {
      std::cerr << "error: cannot write " << a.dot_file << "\n";
      return 2;
    }
    std::cout << "wrote " << a.dot_file << " (render: dot -Tsvg " << a.dot_file
              << " -o run.svg)\n";
  }
  return rc;
}
