#!/usr/bin/env bash
# End-to-end gate for the streaming observability pipeline:
#   1. a threaded ring-mode run with --live-audit must exit 0, report the
#      ring counters, and stream a JSONL trace that koptlog_audit accepts
#      post-hoc;
#   2. koptlog_audit --follow over that (finished) file must print the same
#      summary line as batch mode;
#   3. a torn final line must be reported but not fail the audit;
#   4. an appended orphan-commit line must make both batch mode and --follow
#      exit 1 with the offending event's stable id in the diagnostic.
#
# Under ctest (test "live_audit_follow") the harness sets
# KOPTLOG_SCHEMA_NO_BUILD=1 and BUILD_DIR to reuse the binaries it built.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

if [[ -z "${KOPTLOG_SCHEMA_NO_BUILD:-}" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target koptlog_sim koptlog_audit -j "$(nproc)"
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
TRACE="$TMP/ring.jsonl"

echo "== ring-mode threaded run with live audit"
"$BUILD_DIR/tools/koptlog_sim" --backend threaded --shards 4 --n 6 \
  --failures 3 --injections 200 --seed 9 \
  --record ring --ring-capacity 4096 --live-audit \
  --trace-out "$TRACE" | tee "$TMP/sim.out"
grep -q "live audit: audit OK" "$TMP/sim.out"
grep -q "ring " "$TMP/sim.out"

echo "== streamed trace re-audits green (batch)"
"$BUILD_DIR/tools/koptlog_audit" "$TRACE" | tee "$TMP/batch.out"

echo "== --follow on the finished file prints the same summary"
"$BUILD_DIR/tools/koptlog_audit" --follow --idle-timeout-ms 300 "$TRACE" \
  | tee "$TMP/follow.out"
grep -q "^audit OK: " "$TMP/batch.out"
diff "$TMP/batch.out" "$TMP/follow.out"

echo "== torn final line: reported, not fatal"
head -c $(( $(wc -c < "$TRACE") - 7 )) "$TRACE" > "$TMP/torn.jsonl"
"$BUILD_DIR/tools/koptlog_audit" "$TMP/torn.jsonl" 2> "$TMP/torn.err"
grep -q "torn final line" "$TMP/torn.err"

echo "== injected orphan commit: batch and --follow exit 1 and cite the event"
cp "$TRACE" "$TMP/bad.jsonl"
# A fresh announcement ends P0's (fictitious) incarnation 40 at sii 500000
# — far above anything the real run committed, so no real output is
# retroactively orphaned — then a commit ships a vector carrying the dead
# (40,999999)_0. The auditor must convict the commit, by id.
cat >> "$TMP/bad.jsonl" <<'EOF'
{"kind":"failure_announce","t":99999999,"p":0,"seq":999998,"at":[40,500000],"ended":[40,500000],"fail":true}
{"kind":"output_commit","t":99999999,"p":1,"seq":999999,"at":[0,1],"msg":[1,999999],"ref":[1,0,1],"tdv":[[0,40,999999]]}
EOF
if "$BUILD_DIR/tools/koptlog_audit" --follow --idle-timeout-ms 300 \
    "$TMP/bad.jsonl" 2> "$TMP/bad.err"; then
  echo "ERROR: --follow accepted an orphan commit" >&2
  exit 1
fi
grep -q "VIOLATION" "$TMP/bad.err"
grep -q "P1#999999" "$TMP/bad.err"
if "$BUILD_DIR/tools/koptlog_audit" "$TMP/bad.jsonl" 2> "$TMP/bad_batch.err"; then
  echo "ERROR: batch mode accepted an orphan commit" >&2
  exit 1
fi
grep -q "P1#999999" "$TMP/bad_batch.err"

echo "live_audit_follow_test: all checks passed"
