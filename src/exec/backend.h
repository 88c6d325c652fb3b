// Execution-backend table: the named ways to host a cluster of recovery
// processes. Mirrors core/engine_registry.h one level down — the engine
// picks the *protocol*, the backend picks *how the processes execute*:
//
//   sim       one deterministic discrete-event Simulator (core/cluster.h)
//   threaded  one real event-loop thread per shard (exec/threaded_cluster.h)
//
// Drivers written against ClusterHost run on either.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/cluster_host.h"
#include "exec/threaded_cluster.h"

namespace koptlog {

struct BackendInfo {
  std::string name;
  std::string description;
};

/// The known backends, in presentation order (--list-backends).
const std::vector<BackendInfo>& backend_table();

/// True iff `name` is a row of backend_table().
bool is_backend(const std::string& name);

struct BackendOptions {
  std::string name = "sim";
  /// Threaded backend only: shards, time scale, mailbox capacity,
  /// announcement fan-out and health telemetry. The sim backend ignores
  /// them all (its single thread has nothing a health sampler could race,
  /// and determinism goldens must not move).
  ThreadedOptions threaded;
};

/// Build a host for `opt.name`, applying any engine preset in
/// `engine_factory`'s entry beforehand is the caller's business (see
/// make_cluster_with_engine). Returns nullptr for an unknown backend name.
/// On the threaded backend the oracle is force-disabled; pass
/// cfg.record_events=true and audit the merged trace instead.
std::unique_ptr<ClusterHost> make_backend_host(
    const BackendOptions& opt, const ClusterConfig& cfg,
    const ClusterHost::AppFactory& app,
    const ClusterHost::EngineFactory& engine_factory);

}  // namespace koptlog
