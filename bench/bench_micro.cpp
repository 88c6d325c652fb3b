// M1 — Micro-benchmarks of the hot protocol primitives and the simulation
// substrate (google-benchmark). These set the constant factors behind every
// experiment binary: dependency-vector merges, table queries, deliverability
// checks, simulator event throughput, and a small end-to-end cluster run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "app/workloads.h"
#include "core/oracle.h"
#include "wire/codec.h"
#include "core/cluster.h"
#include "core/dep_vector.h"
#include "core/interval_table.h"
#include "exec/mpsc_mailbox.h"
#include "obs/ring_recorder.h"
#include "exec/threaded_scheduler.h"
#include "sim/simulator.h"

using namespace koptlog;

namespace {

DepVector make_vector(int n, int live, uint64_t salt) {
  DepVector v(n);
  for (int i = 0; i < live; ++i) {
    auto j = static_cast<ProcessId>((salt + static_cast<uint64_t>(i) * 7) %
                                    static_cast<uint64_t>(n));
    v.set(j, Entry{static_cast<Incarnation>(i % 3),
                   static_cast<Sii>(100 + i)});
  }
  return v;
}

void BM_DepVectorMergeMax(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  DepVector a = make_vector(n, n / 2, 1);
  DepVector b = make_vector(n, n / 2, 5);
  for (auto _ : state) {
    DepVector tmp = a;
    tmp.merge_max(b);
    benchmark::DoNotOptimize(tmp);
  }
}
BENCHMARK(BM_DepVectorMergeMax)->Arg(8)->Arg(64)->Arg(512);

// The sparse-representation payoff, measured not assumed: merge_max cost
// as a function of the LIVE entry count at fixed system size N=1000. The
// old dense representation paid O(N) regardless (the Arg(1000) row is the
// dense-equivalent upper bound, every entry live); the sparse two-pointer
// merge pays O(nnz), so the nnz=1..16 rows — the K-bounded regime every
// released message lives in — must sit orders of magnitude below it.
void BM_DepVectorMergeMaxSparse(benchmark::State& state) {
  constexpr int n = 1000;
  const int nnz = static_cast<int>(state.range(0));
  DepVector a = make_vector(n, nnz, 1);
  DepVector b = make_vector(n, nnz, 5);
  for (auto _ : state) {
    DepVector tmp = a;
    tmp.merge_max(b);
    benchmark::DoNotOptimize(tmp);
  }
  state.counters["nnz"] = static_cast<double>(a.non_null_count());
}
BENCHMARK(BM_DepVectorMergeMaxSparse)->Arg(1)->Arg(4)->Arg(16)->Arg(1000);

void BM_DepVectorNonNullCount(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  DepVector v = make_vector(n, n / 3, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.non_null_count());
  }
}
BENCHMARK(BM_DepVectorNonNullCount)->Arg(8)->Arg(64)->Arg(512);

void BM_EntrySetInsertMaxMerge(benchmark::State& state) {
  for (auto _ : state) {
    EntrySet se;
    for (Sii x = 0; x < 64; ++x)
      se.insert(Entry{static_cast<Incarnation>(x % 4), x});
    benchmark::DoNotOptimize(se);
  }
}
BENCHMARK(BM_EntrySetInsertMaxMerge);

void BM_EntrySetCoversAndOrphans(benchmark::State& state) {
  EntrySet se;
  for (Incarnation t = 0; t < 16; ++t) se.insert(Entry{t, 100 + t});
  for (auto _ : state) {
    benchmark::DoNotOptimize(se.covers(Entry{7, 99}));
    benchmark::DoNotOptimize(se.orphans(Entry{3, 200}));
  }
}
BENCHMARK(BM_EntrySetCoversAndOrphans);

void BM_SimulatorScheduleAndStep(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1024; ++i) {
      sim.schedule_at(static_cast<SimTime>((i * 37) % 4096), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_SimulatorScheduleAndStep);

void BM_EndToEndClusterRun(benchmark::State& state) {
  int64_t events = 0;
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.n = 4;
    cfg.seed = 9;
    cfg.enable_oracle = false;
    Cluster cluster(cfg, make_uniform_app({}));
    cluster.start();
    inject_uniform_load(cluster, 20, 1'000, 100'000, 6, 9);
    cluster.fail_at(50'000, 1);
    cluster.run_for(400'000);
    cluster.drain();
    events += static_cast<int64_t>(cluster.sim().events_executed());
  }
  state.counters["sim_events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndClusterRun)->Unit(benchmark::kMillisecond);

void BM_CodecEncodeAppMsg(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  AppMsg m;
  m.id = MsgId{0, 1};
  m.from = 0;
  m.to = 1;
  m.tdv = make_vector(n, n / 2, 7);
  m.born_of = IntervalId{0, 0, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::encode_app_msg(m, true));
  }
}
BENCHMARK(BM_CodecEncodeAppMsg)->Arg(8)->Arg(64);

void BM_CodecRoundTripAppMsg(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  AppMsg m;
  m.id = MsgId{0, 1};
  m.from = 0;
  m.to = 1;
  m.tdv = make_vector(n, n / 2, 7);
  m.born_of = IntervalId{0, 0, 5};
  auto bytes = wire::encode_app_msg(m, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_app_msg(bytes, n, true));
  }
}
BENCHMARK(BM_CodecRoundTripAppMsg)->Arg(8)->Arg(64);

// --- Mailbox primitives -----------------------------------------------------
// The two-level threaded-backend spine: lock-free MPSC push/drain cost,
// producer contention at 1..8 threads, and submit-to-execute through a live
// ThreadedScheduler. These set the constant factors behind the e12
// shard-scaling sweep.

struct MailItem {
  SimTime t = 0;
  uint64_t seq = 0;
};

void BM_MailboxMpscPushDrain(benchmark::State& state) {
  // Single-threaded round trip: push `batch` items, drain them all. Measures
  // the uncontended CAS + exchange + reversal cost per item.
  const int batch = static_cast<int>(state.range(0));
  MpscMailbox<MailItem> box;
  int64_t items = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      box.push(MailItem{static_cast<SimTime>(i), static_cast<uint64_t>(i)});
    }
    items += static_cast<int64_t>(box.drain([](MailItem&&) {}));
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_MailboxMpscPushDrain)->Arg(1)->Arg(64)->Arg(1024);

// --- Ring recorder ----------------------------------------------------------
// The streaming observability hot path: what a shard pays to record one
// protocol event into its SPSC ring while a collector thread drains it.
// Recording must stay cheap enough to be passive; this pins the constant.

void BM_RingRecorderRecordDrain(benchmark::State& state) {
  // Uncontended round trip: record `batch`, drain `batch`.
  const size_t batch = static_cast<size_t>(state.range(0));
  RingRecorder ring(0, /*capacity=*/4096);
  ProtocolEvent e;
  e.kind = EventKind::kSend;
  e.at = Entry{0, 1};
  int64_t items = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) ring.record(e);
    items += static_cast<int64_t>(
        ring.drain(batch, [](const ProtocolEvent&) {}));
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_RingRecorderRecordDrain)->Arg(1)->Arg(64)->Arg(1024);

void BM_RingRecorderProducerUnderLiveDrain(benchmark::State& state) {
  // The deployed shape: producer records flat out while the collector
  // thread drains concurrently. Measures producer-side cost including
  // cache-line ping-pong on head/tail — the number the recording-passivity
  // claim rides on.
  RingRecorder ring(0, /*capacity=*/4096);
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (ring.drain(256, [](const ProtocolEvent&) {}) == 0) {
        std::this_thread::yield();
      }
    }
    while (ring.drain(256, [](const ProtocolEvent&) {}) > 0) {
    }
  });
  ProtocolEvent e;
  e.kind = EventKind::kSend;
  e.at = Entry{0, 1};
  int64_t items = 0;
  for (auto _ : state) {
    ring.record(e);
    ++items;
  }
  stop.store(true, std::memory_order_release);
  consumer.join();
  state.SetItemsProcessed(items);
  state.counters["dropped"] =
      static_cast<double>(ring.dropped());
}
BENCHMARK(BM_RingRecorderProducerUnderLiveDrain);

void BM_MailboxMpscContention(benchmark::State& state) {
  // `producers` threads hammer one mailbox while this thread drains until
  // every item has arrived — the cross-shard submit path under contention.
  const int producers = static_cast<int>(state.range(0));
  constexpr int kPerProducer = 4096;
  int64_t items = 0;
  for (auto _ : state) {
    MpscMailbox<MailItem> box;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&box, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          box.push(MailItem{static_cast<SimTime>(i),
                            static_cast<uint64_t>(p) << 32 |
                                static_cast<uint64_t>(i)});
        }
      });
    }
    const size_t want = static_cast<size_t>(producers) * kPerProducer;
    size_t got = 0;
    while (got < want) {
      size_t n = box.drain([](MailItem&&) {});
      if (n == 0) std::this_thread::yield();
      got += n;
    }
    for (std::thread& t : threads) t.join();
    items += static_cast<int64_t>(got);
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_MailboxMpscContention)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ThreadedSchedulerPump(benchmark::State& state) {
  // End-to-end submit→execute through a live ThreadedScheduler: per item this
  // pays the mailbox push, the wake handshake, and the deadline-queue pop.
  MonotonicClock clock(1.0);
  ThreadedScheduler sched(clock, "bench");
  sched.start();
  constexpr int kBurst = 1024;
  int64_t items = 0;
  for (auto _ : state) {
    const uint64_t base = sched.executed();
    for (int i = 0; i < kBurst; ++i) sched.schedule_at(0, [] {});
    while (sched.executed() < base + kBurst) std::this_thread::yield();
    items += kBurst;
  }
  sched.stop_and_join();
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_ThreadedSchedulerPump)->Unit(benchmark::kMillisecond);

void BM_OracleDoomClosure(benchmark::State& state) {
  // A two-lane history with cross edges; doom queries exercise the memoized
  // reachability that verify() runs over every interval.
  Oracle o(2);
  o.on_process_start(IntervalId{0, 0, 1}, 0);
  o.on_process_start(IntervalId{1, 0, 1}, 0);
  constexpr Sii kLen = 2000;
  for (Sii x = 2; x <= kLen; ++x) {
    o.on_interval_start(IntervalId{0, 0, x}, IntervalId{1, 0, x - 1}, 0);
    o.on_interval_start(IntervalId{1, 0, x}, IntervalId{0, 0, x - 1}, 0);
  }
  o.on_crash(1, kLen - 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(o.doomed_count());
  }
}
BENCHMARK(BM_OracleDoomClosure);

}  // namespace

BENCHMARK_MAIN();
