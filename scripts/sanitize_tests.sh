#!/usr/bin/env bash
# Sanitizer test variants, each in its own build directory:
#
#   scripts/sanitize_tests.sh            # asan: address,undefined
#   scripts/sanitize_tests.sh asan
#   scripts/sanitize_tests.sh tsan      # thread: the threaded backend suite
#   scripts/sanitize_tests.sh storage   # asan: the durable-storage suite
#   KOPTLOG_SANITIZE=thread scripts/sanitize_tests.sh
#
# asan runs the runtime-component + observability unit tests (the JSONL
# reader — batch and streaming — parses untrusted input; the ring recorder
# and live auditor ride along). tsan rebuilds with -fsanitize=thread and
# runs the threaded execution backend's suite (ctest label "threaded"):
# ThreadedScheduler units, whole-cluster multi-failure runs whose traces
# must audit clean, and the SPSC ring-recorder/collector stress — the
# acceptance gate for the real-thread backend and the streaming pipeline. storage runs everything labelled "storage" under asan: the
# on-disk WAL round-trip/recovery tests, the format fuzz-smoke (the
# analysis scan parses whatever a crash left on disk — untrusted input),
# the model-vs-disk restart-equivalence gate, and the kill -9 + fsck
# script.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=${1:-${KOPTLOG_SANITIZE:-address}}
case "$MODE" in
  asan|address|ON) MODE=address ;;
  tsan|thread) MODE=thread ;;
  storage) MODE=storage ;;
  *)
    echo "usage: $0 [asan|tsan|storage]  (or KOPTLOG_SANITIZE=address|thread|storage)" >&2
    exit 2
    ;;
esac

if [[ "$MODE" == storage ]]; then
  BUILD_DIR=${BUILD_DIR:-build-asan}
  cmake -B "$BUILD_DIR" -S . -DKOPTLOG_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" \
    --target koptlog_storage_tests koptlog_sim koptlog_fsck -j "$(nproc)"
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L storage
elif [[ "$MODE" == thread ]]; then
  BUILD_DIR=${BUILD_DIR:-build-tsan}
  cmake -B "$BUILD_DIR" -S . -DKOPTLOG_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" --target koptlog_threaded_tests -j "$(nproc)"
  export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L threaded
else
  BUILD_DIR=${BUILD_DIR:-build-asan}
  cmake -B "$BUILD_DIR" -S . -DKOPTLOG_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" --target koptlog_tests -j "$(nproc)"

  # Unit tests for the runtime components + the deterministic Figure 1
  # walkthrough + the observability layer (event recording, JSONL parsing,
  # exporters, trace audit): the highest-value surface for UB/ASan — the
  # JSONL reader in particular parses untrusted input — and fast enough to
  # gate on. Everything else still runs in the regular (unsanitized) job.
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
    -R 'SendBuffer|ReceiveBuffer|OutputBuffer|ReliableChannel|ReplayEngine|Figure1|Determinism|EventKind|EventRecorder|Recording|RingRecorder|StreamingTraceParser|TraceIo|TraceDecoder|JsonParser|TraceGolden|Export|Audit|CodecFuzz'
fi
