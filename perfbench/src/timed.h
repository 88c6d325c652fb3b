// Forwarding decorators for the traced run. They wrap only public seams:
// ClusterHost::AppFactory (Application::on_deliver), ClusterHost::
// EngineFactory (every RecoveryProcess handler, crash, restart, drain_tick)
// and the ClusterApi an engine is handed (route_app_msg, the two control
// broadcasts, commit_output). Each forwarded call is bracketed by a
// ScopedSpan; everything else passes straight through, so the wrapped run
// makes the same decisions as the bare one.
#pragma once

#include "core/cluster_host.h"

namespace perfbench {

/// Wraps every application `make` builds.
koptlog::ClusterHost::AppFactory timed_apps(koptlog::ClusterHost::AppFactory make);

/// Wraps every engine `make` builds, and hands it a timed ClusterApi.
koptlog::ClusterHost::EngineFactory timed_engines(
    koptlog::ClusterHost::EngineFactory make);

}  // namespace perfbench
