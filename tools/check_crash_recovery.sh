#!/usr/bin/env bash
# Crash-recovery determinism check for the durable-state subsystem
# (src/persist, docs/PERSISTENCE.md).
#
# Job 1 — kill + resume byte-identity: run the serve CLI to completion for
# a reference report, then re-run with CROWDTOPK_PERSIST_KILL_BARRIER so
# the process _Exit(137)s right after a WAL batch lands, and --resume it.
# The resumed run's machine-readable report must byte-match the reference
# for two kill barriers: a late one (long durable prefix, short live tail)
# and an early one (short prefix, most of the run re-executed live).
#
# Job 2 — corrupted WAL tail: flip a byte near the tail of the newest
# surviving segment before resuming. The resume must exit 0 (graceful
# degradation, not a crash), report dropped bytes, and still reproduce the
# reference report byte-for-byte — corruption only lengthens catch-up.
#
# Usage: tools/check_crash_recovery.sh <build_dir>
set -eu

build="${1:?usage: tools/check_crash_recovery.sh <build_dir>}"
serve="$build/tools/crowdtopk_serve"
[ -x "$serve" ] || { echo "FAIL: $serve not built"; exit 1; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

queries=12

run_serve() {  # run_serve <report> <persist_dir> [extra args...]
  local report="$1" dir="$2"; shift 2
  env CROWDTOPK_SERVE_QUERIES="$queries" CROWDTOPK_CACHE=1 \
      CROWDTOPK_SERVE_REPORT="$report" \
      CROWDTOPK_PERSIST_DIR="$dir" "$serve" "$@"
}

kill_serve() {  # kill_serve <persist_dir> <barrier>: must _Exit(137)
  local status=0
  env CROWDTOPK_SERVE_QUERIES="$queries" CROWDTOPK_CACHE=1 \
      CROWDTOPK_PERSIST_DIR="$1" CROWDTOPK_PERSIST_KILL_BARRIER="$2" \
      "$serve" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 137 ]; then
    echo "FAIL: kill run exited $status, expected 137"; exit 1
  fi
}

echo "== reference run (no persistence) =="
env CROWDTOPK_SERVE_QUERIES="$queries" CROWDTOPK_CACHE=1 \
    CROWDTOPK_SERVE_REPORT="$work/reference.jsonl" \
    "$serve" > /dev/null

for kill_barrier in 40 15; do
  echo "== kill at barrier $kill_barrier + resume =="
  dir="$work/persist_k$kill_barrier"
  kill_serve "$dir" "$kill_barrier"
  run_serve "$work/resumed_k$kill_barrier.jsonl" "$dir" --resume > /dev/null
  if ! cmp -s "$work/reference.jsonl" "$work/resumed_k$kill_barrier.jsonl"; then
    echo "FAIL: resumed report (kill at $kill_barrier) differs from reference"
    diff "$work/reference.jsonl" "$work/resumed_k$kill_barrier.jsonl" | head -5
    exit 1
  fi
  echo "   OK: resumed report byte-identical"
done

echo "== corrupted WAL tail degrades gracefully =="
dir="$work/persist_corrupt"
kill_serve "$dir" 40

segment="$(ls "$dir"/wal-*.log | sort | tail -1)"
size="$(stat -c%s "$segment")"
printf '\xff' | dd of="$segment" bs=1 seek=$((size - 3)) conv=notrunc 2>/dev/null
echo "   corrupted tail byte of $(basename "$segment")"

run_serve "$work/resumed_corrupt.jsonl" "$dir" --resume \
  > "$work/corrupt_stdout.txt" 2> "$work/corrupt_stderr.txt"
if ! cmp -s "$work/reference.jsonl" "$work/resumed_corrupt.jsonl"; then
  echo "FAIL: post-corruption resume differs from reference"; exit 1
fi
if ! grep -q "dropped_bytes=[1-9]" "$work/corrupt_stdout.txt"; then
  echo "FAIL: resume did not report dropped WAL bytes"
  grep "^persist:" "$work/corrupt_stdout.txt" || true
  exit 1
fi
if ! grep -q "WAL tail damaged" "$work/corrupt_stderr.txt"; then
  echo "FAIL: resume did not warn about the damaged tail"; exit 1
fi
echo "   OK: clean exit, dropped bytes reported, report byte-identical"

echo "PASS: crash-recovery determinism checks"
