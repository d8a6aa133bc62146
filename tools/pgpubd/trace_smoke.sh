#!/usr/bin/env bash
# Tracing smoke test for pgpubd: boots a two-tenant daemon with --trace,
# serves a few publishes per tenant, asserts the Prometheus exposition
# carries per-tenant labels, drains on SIGTERM, and then validates the
# Chrome Trace Event artifact with trace_check — span shape, parent
# linkage, interval containment, and the per-tenant attribution on the
# dispatch spans. CI runs this as the trace-smoke job and uploads the
# trace; it is also runnable locally:
#
#   tools/pgpubd/trace_smoke.sh build/tools/pgpubd/pgpubd \
#                               build/tools/pgpubd/pgpubctl \
#                               build/tools/trace_check/trace_check \
#                               /tmp/pgpubd_trace.json
set -euo pipefail

PGPUBD=${1:-build/tools/pgpubd/pgpubd}
PGPUBCTL=${2:-build/tools/pgpubd/pgpubctl}
TRACE_CHECK=${3:-build/tools/trace_check/trace_check}
TRACE_OUT=${4:-pgpubd_trace.json}

fail() { echo "trace_smoke: FAIL: $*" >&2; exit 1; }

[ -x "$PGPUBD" ] || fail "missing $PGPUBD"
[ -x "$PGPUBCTL" ] || fail "missing $PGPUBCTL"
[ -x "$TRACE_CHECK" ] || fail "missing $TRACE_CHECK"

PORT_FILE=$(mktemp)
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -f "$PORT_FILE"' EXIT

# Two tenants so the trace demonstrably separates attribution; a slow
# budget of 0.01ms ensures at least one slow-request WARN fires, proving
# the span-tree log path works end to end.
"$PGPUBD" --port=0 --port-file="$PORT_FILE" --queue-capacity=64 \
          --tenants=census:600,clinic:500 \
          --trace="$TRACE_OUT" --slow-ms=0.01 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "pgpubd died during startup"
  sleep 0.1
done
[ -s "$PORT_FILE" ] || fail "pgpubd never wrote its port file"
PORT=$(cat "$PORT_FILE")
echo "trace_smoke: pgpubd on port $PORT"

for tenant in census clinic; do
  for seed in 3 5 7; do
    "$PGPUBCTL" "$PORT" PUBLISH "$tenant" "$seed" \
      | grep -q "^ok tenant=$tenant" || fail "PUBLISH $tenant/$seed failed"
  done
done

# The per-tenant instruments must be live while the daemon still runs.
PROM=$("$PGPUBCTL" "$PORT" PROM)
for tenant in census clinic; do
  echo "$PROM" | grep -q "^server_latency_us_count{tenant=\"$tenant\"}" \
    || fail "PROM missing per-tenant histogram for $tenant"
done

# Drain; the trace file is written after the last request completes.
kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
  fail "pgpubd did not exit cleanly on SIGTERM"
fi
trap 'rm -f "$PORT_FILE"' EXIT
[ -s "$TRACE_OUT" ] || fail "pgpubd wrote no trace to $TRACE_OUT"

"$TRACE_CHECK" \
  --require-span=server.request \
  --require-span=server.admit \
  --require-span=server.queue_wait \
  --require-span=server.dispatch \
  --require-span=engine.publish \
  --require-span=robust.publish \
  --require-span=publish.generalize \
  --require-span=tds.round \
  --require-attr='server.dispatch:tenant=census' \
  --require-attr='server.dispatch:tenant=clinic' \
  --require-attr='engine.publish:tenant=census' \
  --require-attr='publish.generalize:tenant=clinic' \
  "$TRACE_OUT" || fail "trace_check rejected $TRACE_OUT"

echo "trace_smoke: OK ($TRACE_OUT)"
