// Shared fixture for the src/runtime component unit tests: a ManualHarness
// ClusterApi (captures routed messages, acks and outputs; draining() is
// true so nothing re-arms timers) plus the executor/storage pair that a
// RuntimeServices context needs. Costs default to StorageCosts{} — tests
// that want synchronous visibility drive the simulator explicitly.
#pragma once

#include "core/manual.h"
#include "runtime/runtime_services.h"
#include "sim/executor.h"
#include "storage/stable_storage.h"

namespace koptlog {

struct RuntimeFixture {
  explicit RuntimeFixture(int n = 4, StorageCosts costs = StorageCosts{})
      : api(n),
        exec(api.sim()),
        storage(costs, make_storage_backend(StorageOptions{}, costs, 0, n,
                                            api.sim(), nullptr)),
        rt{0, n, api, exec, storage} {}

  /// An application message from `from` to P0 carrying an all-NULL size-n
  /// vector; seq doubles as the sender interval index.
  AppMsg msg(ProcessId from, SeqNo seq) {
    AppMsg m;
    m.id = MsgId{from, seq};
    m.from = from;
    m.to = 0;
    m.tdv = DepVector(rt.n);
    m.born_of = IntervalId{from, 1, static_cast<Sii>(seq)};
    m.sent_at = api.sim().now();
    return m;
  }

  ManualHarness api;
  Executor exec;
  StableStorage storage;
  RuntimeServices rt;
};

}  // namespace koptlog
