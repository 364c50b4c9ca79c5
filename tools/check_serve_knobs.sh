#!/usr/bin/env bash
# Usage-error contract of the serving CLIs: every out-of-range workload or
# crowd knob must exit 2 with a message naming the variable, never abort
# on a library CHECK or an uncaught exception. crowdtopk_server and
# crowdtopk_router share the six crowd knobs with crowdtopk_serve; they must
# refuse a bad one at startup, before printing their `listening` line, not
# when the first query's batch trips a CHECK. The same holds for their own
# CROWDTOPK_NET_MAX_CONNS: a server that admits no connection serves nobody.
#
# Usage: tools/check_serve_knobs.sh <build_dir>
set -u

build="${1:?usage: tools/check_serve_knobs.sh <build_dir>}"
serve="$build/tools/crowdtopk_serve"
server="$build/tools/crowdtopk_server"
router="$build/tools/crowdtopk_router"
for bin in "$serve" "$server" "$router"; do
  [ -x "$bin" ] || { echo "FAIL: $bin not built"; exit 1; }
done

crowd_knobs=(
  CROWDTOPK_SERVE_WORKERS=0
  CROWDTOPK_SERVE_ETA=0
  CROWDTOPK_SERVE_INFLIGHT=0
  CROWDTOPK_SERVE_DEADLINE=0
  CROWDTOPK_SERVE_ABANDON=2
  CROWDTOPK_SERVE_ATTEMPTS=0
)

failures=0
for setting in \
    CROWDTOPK_SERVE_QUERIES=-1 \
    CROWDTOPK_SERVE_RATE=0 \
    CROWDTOPK_SERVE_K=0 \
    CROWDTOPK_SERVE_K=100000 \
    CROWDTOPK_SERVE_ALPHA=0 \
    "${crowd_knobs[@]}"; do
  name="${setting%%=*}"
  stderr="$(env CROWDTOPK_SERVE_QUERIES=2 "$setting" "$serve" 2>&1 >/dev/null)"
  status=$?
  if [ "$status" -ne 2 ] || [[ "$stderr" != *"$name"* ]]; then
    echo "FAIL: serve $setting exited $status (want 2 naming $name): $stderr"
    failures=$((failures + 1))
  else
    echo "ok: serve $setting -> exit 2"
  fi
done

# A front-end that accepts a bad knob binds a port and blocks in its event
# loop; the timeout turns that into a failure instead of a hang.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
for bin in "$server" "$router"; do
  tool="$(basename "$bin")"
  for setting in "${crowd_knobs[@]}" CROWDTOPK_NET_MAX_CONNS=0; do
    name="${setting%%=*}"
    env CROWDTOPK_NET_PORT=0 "$setting" timeout 5 "$bin" \
        > "$work/stdout" 2> "$work/stderr"
    status=$?
    if [ "$status" -ne 2 ] || ! grep -q "$name" "$work/stderr" ||
        grep -q "listening" "$work/stdout"; then
      echo "FAIL: $tool $setting exited $status (want 2 naming $name," \
           "no listening line): $(cat "$work/stderr" "$work/stdout")"
      failures=$((failures + 1))
    else
      echo "ok: $tool $setting -> exit 2"
    fi
  done
done
[ "$failures" -eq 0 ] || exit 1
echo "PASS: every out-of-range knob is a usage error"
