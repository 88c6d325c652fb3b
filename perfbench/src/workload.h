// The benchmark's workloads and one execution of one seeded instance.
//
// A workload run is a fixed set of instances derived from the workload
// seed; each instance is one complete cluster run (build, start, inject,
// crash, run, drain, shut down, verify) on N=16 processes. The benchmark
// generates every input itself and hands the cluster only the generated
// requests and crashes, through ClusterHost::inject_at and fail_at.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/protocol_msg.h"
#include "sim/stats.h"
#include "spans.h"

namespace perfbench {

/// Scratch files (the audit-trace JSONL) and the traced run's span dump,
/// relative to the checkout the benchmark runs in.
inline constexpr const char* kWorkDir = ".bench_build/work";

enum class Backend { kSim, kThreaded };
enum class AppKind { kClientServer, kUniform };
/// The post-run correctness check, timed as verdict_s.
enum class Verdict {
  kDigest,      ///< committed-output digest equals the audited reference's;
                ///< verdict_s times the reference runs' merge and audit
  kTraceAudit,  ///< merge, write JSONL, read back, audit; counts must agree
  kOracle,      ///< ground-truth oracle, strict Theorem 4
  kAudit,       ///< merge and audit the in-memory recording
};

struct WorkloadSpec {
  std::string name;
  Backend backend = Backend::kSim;
  AppKind app = AppKind::kClientServer;
  int n = 16;
  int k = -1;  ///< -1 = N
  int crashes = 0;
  int requests = 0;         ///< injections per instance
  double rate_per_s = 0;    ///< open-loop arrival rate, virtual time
  int instances = 1;        ///< instances per cycle
  /// Also fixes what runs: kTraceAudit and kAudit record protocol events,
  /// kOracle turns the ground-truth oracle on.
  Verdict verdict = Verdict::kDigest;
  int shards = 1;           ///< threaded backend only
};

/// Returns false for an unknown name.
bool find_workload(const std::string& name, WorkloadSpec& out);
const std::vector<std::string>& workload_names();

struct Request {
  koptlog::SimTime due = 0;
  koptlog::ProcessId to = 0;
  koptlog::AppPayload payload;
};

struct Crash {
  koptlog::SimTime at = 0;
  koptlog::ProcessId pid = 0;
};

/// One instance's inputs: a pure function of (workload, seed, index).
struct Inputs {
  uint64_t cluster_seed = 0;
  std::vector<Request> requests;  ///< due times strictly increasing
  std::vector<Crash> crashes;     ///< distinct pids, placed during load
  koptlog::SimTime load_end = 0;
};

Inputs make_inputs(const WorkloadSpec& w, uint64_t seed, int index);

/// Counts that must repeat exactly on every execution of one instance on
/// the deterministic backend.
struct Counts {
  int64_t sim_events = 0;
  int64_t deliveries = 0;
  int64_t outputs = 0;
  int64_t control_broadcasts = 0;
  int64_t flushes = 0;
  int64_t sync_writes = 0;
  int64_t checkpoints = 0;
  uint64_t digest = 0;  ///< committed outputs: (id, pid, committed_at)

  bool operator==(const Counts&) const = default;
  std::string str() const;
};

struct RunOptions {
  bool traced = false;  ///< install the span decorators
  bool record = false;  ///< record protocol events (overrides the spec)
  /// Override the backend (the threaded workload's sim twin).
  bool force_sim = false;
  /// Run the workload's post-run check. Off only for the recount pass,
  /// which re-runs an instance just to compare its exact counts.
  bool verify = true;
  /// kDigest: the digest the committed outputs must match (0 = none yet).
  uint64_t expect_digest = 0;
};

struct InstanceResult {
  bool ok = true;
  std::string why;

  double setup_s = 0;
  double run_s = 0;  ///< run_for + drain + shutdown
  double cpu_s = 0;  ///< process CPU over the run phase, all threads
  double verdict_s = 0;
  double peak_rss_mb = 0;
  double generator_late_ms = 0;  ///< how far virtual time had passed the
                                 ///< first due time when setup ended
  /// Host-speed scale for the wall times above (calibrate.h); set by the
  /// caller, 1 = unscaled.
  double scale = 1;

  Counts counts;
  koptlog::Stats stats;
  koptlog::SimTime makespan_us = 0;  ///< last output's commit time
  int requests = 0;
  int answered = 0;
  std::vector<double> request_latency_us;  ///< answered requests only
  /// Per crash: time to the crashed process's first committed output after
  /// it. A crash never served again counts until the end of the run.
  std::vector<double> recovery_us;
  int unserved = 0;  ///< crashes never served again
  int64_t shards = 0;

  // verdict detail
  int64_t recorded_events = 0;
  int64_t trace_bytes = 0;
  int64_t oracle_intervals = 0;

  // traced runs only
  std::map<SpanName, SpanTotals> spans;
  double worker_root_s = 0;
};

InstanceResult run_instance(const WorkloadSpec& w, const Inputs& in,
                            const RunOptions& opt);

}  // namespace perfbench
