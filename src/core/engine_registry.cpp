#include "core/engine_registry.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "direct/direct_process.h"

namespace koptlog {

namespace {

Cluster::EngineFactory kopt_factory() {
  return [](ProcessId pid, const ClusterConfig& cfg, ClusterApi& api,
            std::unique_ptr<Application> app)
             -> std::unique_ptr<RecoveryProcess> {
    return std::make_unique<Process>(pid, cfg.n, cfg.protocol, api,
                                     std::move(app));
  };
}

}  // namespace

EngineRegistry::EngineRegistry() {
  entries_["kopt"] = Entry{
      kopt_factory(),
      "K-optimistic logging (the paper's protocol)",
      nullptr,
  };
  entries_["direct"] = Entry{
      DirectProcess::factory(),
      "direct dependency tracking with on-demand assembly (paper section 5)",
      nullptr,
  };
  entries_["pessimistic"] = Entry{
      kopt_factory(),
      "pessimistic baseline: synchronous log-before-send, K=0",
      [](ClusterConfig& cfg) {
        cfg.protocol = ProtocolConfig::pessimistic();
      },
  };
  entries_["strom-yemini"] = Entry{
      kopt_factory(),
      "traditional optimistic baseline (Strom-Yemini 1985, FIFO channels)",
      [](ClusterConfig& cfg) {
        cfg.protocol = ProtocolConfig::strom_yemini();
        cfg.fifo = true;
      },
  };
}

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry reg;
  return reg;
}

bool EngineRegistry::add(const std::string& name, Entry entry) {
  return entries_.emplace(name, std::move(entry)).second;
}

const EngineRegistry::Entry* EngineRegistry::find(
    const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

namespace {

/// Classic two-row Levenshtein distance; inputs are short engine names.
size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::vector<std::string> EngineRegistry::suggestions(
    const std::string& name) const {
  constexpr size_t kMaxDistance = 2;
  std::vector<std::pair<size_t, std::string>> scored;
  for (const auto& [candidate, entry] : entries_) {
    size_t d = edit_distance(name, candidate);
    if (d <= kMaxDistance) scored.emplace_back(d, candidate);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<std::string> out;
  out.reserve(scored.size());
  for (auto& [d, candidate] : scored) out.push_back(std::move(candidate));
  return out;
}

std::string EngineRegistry::names_joined(char sep) const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) os << sep;
    first = false;
    os << name;
  }
  return os.str();
}

std::unique_ptr<Cluster> make_cluster_with_engine(
    const std::string& engine, ClusterConfig cfg,
    const Cluster::AppFactory& app) {
  const EngineRegistry::Entry* entry = EngineRegistry::instance().find(engine);
  if (entry == nullptr) return nullptr;
  if (entry->configure) entry->configure(cfg);
  return std::make_unique<Cluster>(cfg, app, entry->factory);
}

}  // namespace koptlog
