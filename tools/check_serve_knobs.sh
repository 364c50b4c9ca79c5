#!/usr/bin/env bash
# Usage-error contract of the serve CLI: every out-of-range workload or
# crowd knob must exit 2 with a message naming the variable, never abort
# on a library CHECK or an uncaught exception.
#
# Usage: tools/check_serve_knobs.sh <build_dir>
set -u

build="${1:?usage: tools/check_serve_knobs.sh <build_dir>}"
serve="$build/tools/crowdtopk_serve"
[ -x "$serve" ] || { echo "FAIL: $serve not built"; exit 1; }

failures=0
for setting in \
    CROWDTOPK_SERVE_QUERIES=-1 \
    CROWDTOPK_SERVE_RATE=0 \
    CROWDTOPK_SERVE_K=0 \
    CROWDTOPK_SERVE_K=100000 \
    CROWDTOPK_SERVE_ALPHA=0 \
    CROWDTOPK_SERVE_WORKERS=0 \
    CROWDTOPK_SERVE_ETA=0 \
    CROWDTOPK_SERVE_INFLIGHT=0 \
    CROWDTOPK_SERVE_DEADLINE=0 \
    CROWDTOPK_SERVE_ABANDON=2 \
    CROWDTOPK_SERVE_ATTEMPTS=0; do
  name="${setting%%=*}"
  stderr="$(env CROWDTOPK_SERVE_QUERIES=2 "$setting" "$serve" 2>&1 >/dev/null)"
  status=$?
  if [ "$status" -ne 2 ] || [[ "$stderr" != *"$name"* ]]; then
    echo "FAIL: $setting exited $status (want 2 naming $name): $stderr"
    failures=$((failures + 1))
  else
    echo "ok: $setting -> exit 2"
  fi
done
[ "$failures" -eq 0 ] || exit 1
echo "PASS: every out-of-range knob is a usage error"
