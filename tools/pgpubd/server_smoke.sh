#!/usr/bin/env bash
# End-to-end smoke test for pgpubd: boots the daemon with a deliberately
# tiny queue, drives mixed-tenant load through pgpubctl until admission
# control visibly rejects, asserts the health counters, then checks that
# SIGTERM drains cleanly (exit 0). Malformed numeric flags must be
# rejected up front with the usage exit code. CI runs this as the
# server-smoke job; it is also runnable locally:
#
#   tools/pgpubd/server_smoke.sh build/tools/pgpubd/pgpubd \
#                                build/tools/pgpubd/pgpubctl
set -euo pipefail

PGPUBD=${1:-build/tools/pgpubd/pgpubd}
PGPUBCTL=${2:-build/tools/pgpubd/pgpubctl}

fail() { echo "server_smoke: FAIL: $*" >&2; exit 1; }

[ -x "$PGPUBD" ] || fail "missing $PGPUBD"
[ -x "$PGPUBCTL" ] || fail "missing $PGPUBCTL"

# Malformed numeric arguments are usage errors (exit 2) before anything
# binds: no ephemeral port for --port=abc, no truncation of 8080x, no
# wrap of a negative capacity to SIZE_MAX. The timeout turns a daemon
# that wrongly starts serving into a failure instead of a hang.
expect_usage_error() {
  local rc=0
  timeout 20 "$@" >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "'$*' exited $rc, want usage error 2"
}
for flag in --port=abc --port=8080x --port=70000 --queue-capacity=-1 \
            --batch-seed=-1 --slow-ms=fast --tenants=census:12x; do
  expect_usage_error "$PGPUBD" "$flag"
done
expect_usage_error "$PGPUBCTL" 80x HEALTH
expect_usage_error "$PGPUBCTL" abc HEALTH

PORT_FILE=$(mktemp)
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -f "$PORT_FILE"' EXIT

# Tiny queue: BURST must overflow it, proving rejects are typed, counted
# and non-silent rather than wedging the daemon.
"$PGPUBD" --port=0 --port-file="$PORT_FILE" --queue-capacity=4 \
          --tenants=census:600,clinic:500,hospital:400 &
DAEMON_PID=$!

for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "pgpubd died during startup"
  sleep 0.1
done
[ -s "$PORT_FILE" ] || fail "pgpubd never wrote its port file"
PORT=$(cat "$PORT_FILE")
echo "server_smoke: pgpubd on port $PORT"

"$PGPUBCTL" "$PORT" HEALTH | grep -q "^ok draining=0" \
  || fail "HEALTH not ok"

# One synchronous publish per tenant: every hosted dataset actually serves.
for tenant in census clinic hospital; do
  "$PGPUBCTL" "$PORT" PUBLISH "$tenant" 7 | grep -q "^ok tenant=$tenant" \
    || fail "PUBLISH $tenant did not serve"
done

# Mixed-tenant overload: far more requests than the queue holds.
for tenant in census clinic hospital; do
  "$PGPUBCTL" "$PORT" BURST "$tenant" 200 >/dev/null
done

STATS=$("$PGPUBCTL" "$PORT" STATS)
echo "$STATS" | sed 's/^/server_smoke: /'
get_stat() { echo "$STATS" | awk -v k="$1" '$1 == k {print $2}'; }

[ "$(get_stat server.rejected_full)" -gt 0 ] \
  || fail "expected rejected_full > 0 under overload"
[ "$(get_stat server.admitted)" -gt 0 ] || fail "expected admissions"
[ "$(get_stat server.completed)" -gt 0 ] || fail "expected completions"

# Prometheus exposition: every tenant that served must show up as a
# labeled latency histogram, with the TYPE comment emitted once.
PROM=$("$PGPUBCTL" "$PORT" PROM)
echo "$PROM" | grep -q '^# TYPE server_latency_us histogram' \
  || fail "PROM missing TYPE line for server_latency_us"
for tenant in census clinic hospital; do
  echo "$PROM" | grep -q "^server_latency_us_count{tenant=\"$tenant\"}" \
    || fail "PROM missing per-tenant latency histogram for $tenant"
  echo "$PROM" | grep -q "^server_requests{tenant=\"$tenant\"}" \
    || fail "PROM missing per-tenant request counter for $tenant"
done

# Unknown tenants fail closed (pgpubctl exits 1 on an err reply, so
# capture rather than pipe under pipefail).
NOSUCH=$("$PGPUBCTL" "$PORT" PUBLISH nosuch 1 || true)
echo "$NOSUCH" | grep -q "code=NotFound" \
  || fail "unknown tenant did not fail closed with NotFound"

"$PGPUBCTL" "$PORT" TENANTS | grep -q "tenant census .*breaker=closed" \
  || fail "TENANTS missing census breaker state"

# Graceful drain: SIGTERM answers everything still queued and exits 0.
kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
  fail "pgpubd did not exit cleanly on SIGTERM"
fi
trap 'rm -f "$PORT_FILE"' EXIT
echo "server_smoke: OK"
