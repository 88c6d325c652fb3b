#include "exec/backend.h"

#include "core/cluster.h"

namespace koptlog {

const std::vector<BackendInfo>& backend_table() {
  static const std::vector<BackendInfo> kTable = {
      {"sim",
       "deterministic discrete-event simulator (bit-for-bit reproducible, "
       "ground-truth oracle available)"},
      {"threaded",
       "real threads, one event loop per shard of processes (wall-clock "
       "time; validate with koptlog_audit on a recorded trace)"},
  };
  return kTable;
}

bool is_backend(const std::string& name) {
  for (const BackendInfo& b : backend_table()) {
    if (b.name == name) return true;
  }
  return false;
}

std::unique_ptr<ClusterHost> make_backend_host(
    const BackendOptions& opt, const ClusterConfig& cfg,
    const ClusterHost::AppFactory& app,
    const ClusterHost::EngineFactory& engine_factory) {
  if (opt.name == "sim") {
    return std::make_unique<Cluster>(cfg, app, engine_factory);
  }
  if (opt.name == "threaded") {
    return std::make_unique<ThreadedCluster>(cfg, opt.threaded, app,
                                             engine_factory);
  }
  return nullptr;
}

}  // namespace koptlog
