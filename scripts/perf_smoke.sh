#!/usr/bin/env bash
# Perf smoke for the threaded backend's communication spine: runs bench_e12
# (which re-audits every row's trace) and checks the mailbox storm rows
# scale sanely with shard count — 4-shard throughput must not collapse
# below 1-shard throughput. It also holds the 4-shard K=2 storm rate above
# an absolute floor: the rate of the retired single-mutex mailbox, read
# from the committed trends/2026-08-08 snapshot (mutex_kev_per_s_4shard),
# so the surviving spine must still beat the design it replaced.
#
#   scripts/perf_smoke.sh                 # uses ./build
#   BUILD_DIR=build-rel scripts/perf_smoke.sh
#   KOPTLOG_PERF_SHARD_RATIO=1.0 scripts/perf_smoke.sh   # strict scaling
#
# KOPTLOG_PERF_SHARD_RATIO is the minimum allowed 4-shard/1-shard ratio.
# The default is 0.5: on a single-core CI box every shard worker timeslices
# one CPU, so 4 shards cannot beat 1 shard in wall-clock terms — the check
# guards against a collapse (a contention regression making more shards
# dramatically slower), not for linear scaling. On real multi-core hardware
# set it to 1.0.
#
# Wired as an optional ctest (label "perf") behind -DKOPTLOG_PERF_TESTS=ON;
# it is not part of the default test tier.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
MIN_SHARD_RATIO=${KOPTLOG_PERF_SHARD_RATIO:-0.5}
BENCH="$BUILD_DIR/bench/bench_e12_backend_throughput"

if [[ ! -x "$BENCH" ]]; then
  echo "perf_smoke: $BENCH not built (cmake --build $BUILD_DIR --target bench_e12_backend_throughput)" >&2
  exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "perf_smoke: running bench_e12 (this re-audits every row's trace)..."
(cd "$WORK" && "$(cd "$(dirname "$BENCH")" && pwd)/$(basename "$BENCH")" > bench.log) || {
  cat "$WORK/bench.log" >&2
  echo "perf_smoke: bench_e12 FAILED" >&2
  exit 1
}

python3 - "$WORK/BENCH_e12_backend_throughput.json" "$MIN_SHARD_RATIO" \
    trends/2026-08-08/BENCH_e12_backend_throughput.json << 'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
min_ratio = float(sys.argv[2])
mutex_floor = json.load(open(sys.argv[3]))["metrics"]["mutex_kev_per_s_4shard"]

sweep = next(t for t in doc["tables"] if "storm sweep" in t["title"])
col = {name: i for i, name in enumerate(sweep["columns"])}
rate = {}
for row in sweep["rows"]:
    key = (row[col["mailbox"]], int(row[col["shards"]]), row[col["K"]])
    rate[key] = float(row[col["kev_per_s"]])
    if row[col["verdict"]] != "audit ok":
        sys.exit(f"perf_smoke: FAIL — row {key} verdict {row[col['verdict']]!r}")

one = rate[("batched", 1, "2")]
four = rate[("batched", 4, "2")]
shard_ratio = four / one
print(f"perf_smoke: batched 1-shard {one:.0f} kev/s, 4-shard {four:.0f} kev/s "
      f"(ratio {shard_ratio:.2f}, floor {min_ratio})")
print(f"perf_smoke: 4-shard storm {four:.0f} kev/s vs the retired mutex "
      f"mailbox's {mutex_floor:.1f} kev/s (trends/2026-08-08)")
if shard_ratio < min_ratio:
    sys.exit(f"perf_smoke: FAIL — 4-shard throughput regressed below "
             f"{min_ratio}x the 1-shard rate")
if four <= mutex_floor:
    sys.exit("perf_smoke: FAIL — 4-shard storm no faster than the retired "
             "mutex mailbox")
print("perf_smoke: OK")
EOF
