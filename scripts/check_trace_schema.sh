#!/usr/bin/env bash
# Validate the JSONL trace schema end to end: capture a sample trace from a
# seeded multi-failure koptlog_sim run, require the strict parser to accept
# it (koptlog_audit --parse-only), require the full audit to pass, and
# require the parser to *reject* a corrupted copy. Run after any change to
# src/obs/ or to the schema documented in DESIGN.md §"Observability".
#
# Also runs under ctest (test "trace_schema_check"): the harness sets
# KOPTLOG_SCHEMA_NO_BUILD=1 and BUILD_DIR to reuse the binaries it already
# built, so schema drift fails tier-1 instead of only failing by hand.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}

if [[ -z "${KOPTLOG_SCHEMA_NO_BUILD:-}" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target koptlog_sim koptlog_audit -j "$(nproc)"
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
TRACE="$TMP/sample.jsonl"

"$BUILD_DIR/tools/koptlog_sim" --n 5 --k 2 --injections 40 --failures 2 \
  --seed 7 --no-oracle --trace-out "$TRACE" >/dev/null

echo "== schema: strict parse of the captured trace"
"$BUILD_DIR/tools/koptlog_audit" --parse-only "$TRACE"

echo "== audit: Theorems 1-4 invariants on the captured trace"
"$BUILD_DIR/tools/koptlog_audit" "$TRACE"

echo "== negative: malformed lines must be rejected"
# Truncate a field mid-line and drop the required "at" from another line.
sed -e '3s/"at":\[[0-9-]*,[0-9-]*\]/"at":[0]/' \
    -e '5s/"seq":[0-9]*,//' "$TRACE" > "$TMP/corrupt.jsonl"
if "$BUILD_DIR/tools/koptlog_audit" --parse-only --quiet "$TMP/corrupt.jsonl"; then
  echo "FAIL: parser accepted a corrupted trace" >&2
  exit 1
fi
echo "rejected, as it must be"

echo "== negative: a deeply nested line is a diagnostic, not a crash"
# One line opening a million arrays: a recursive reader runs out of stack
# here; the strict reader must stop at its nesting bound and exit 1.
{ printf '{"kind":"meta","x":'; printf '%*s\n' 1000000 '' | tr ' ' '['; } \
  > "$TMP/deep.jsonl"
set +e
"$BUILD_DIR/tools/koptlog_audit" --parse-only "$TMP/deep.jsonl" \
  > "$TMP/deep.out" 2>&1
rc=$?
set -e
if [[ $rc -ne 1 ]] || ! grep -q "nesting too deep" "$TMP/deep.out"; then
  echo "FAIL: deep nesting gave exit $rc:" >&2
  head -c 500 "$TMP/deep.out" >&2
  exit 1
fi
echo "rejected with: $(grep -o 'nesting too deep at offset [0-9]*' "$TMP/deep.out")"

echo "== negative: a dropped failure announcement must fail the audit"
grep -v '"kind":"failure_announce"' "$TRACE" > "$TMP/no_announce.jsonl"
if "$BUILD_DIR/tools/koptlog_audit" --quiet "$TMP/no_announce.jsonl"; then
  echo "FAIL: audit passed a trace with suppressed announcements" >&2
  exit 1
fi
echo "caught, as it must be"

echo "trace schema OK"
