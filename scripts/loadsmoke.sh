#!/usr/bin/env bash
# Load smoke (the CI `load-smoke` job, runnable locally as `make load-smoke`):
# boot graphjoind with the metrics endpoint and an admission budget, drive it
# with graphjoinload's mixed workload, and leave the one-line JSON summary in
# load-smoke.json for scripts/loadgate.sh to gate. The harness itself fails
# the run when its client-side request ledger disagrees with the server's
# requests_total delta, so a green smoke also proves the metrics pipeline
# counts exactly.
#
# With LOADSMOKE_CLUSTER=N the workload is driven through a graphjoind whose
# default store routes over N graphjoind shards (-route) instead of a single
# server. The ledger==delta cross-check then runs against the coordinator's
# own frontend metrics: every harness request is exactly one request at the
# coordinator no matter how wide it fans out behind it.
#
# Tunables (environment): LOADSMOKE_CONNS (default 4), LOADSMOKE_DURATION
# (default 5s), LOADSMOKE_CLUSTER (default empty = single server).
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
server_pid=""
cluster_pids=()
cleanup() {
  status=$?
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  for pid in "${cluster_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  if [ "$status" -ne 0 ]; then
    for log in "$bin"/*.log; do
      [ -f "$log" ] || continue
      echo "loadsmoke: ---- $(basename "$log") ----" >&2
      cat "$log" >&2
    done
  fi
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/graphjoind" ./cmd/graphjoind
go build -o "$bin/graphjoinload" ./cmd/graphjoinload

# scrape_banner <log> <pid>: wait for the wire address ("... on ADDR") in a
# server log with a deadline, not a fixed retry count — slow CI runners boot
# slower than laptops. Sets $addr.
scrape_banner() {
  local log="$1" pid="$2"
  addr=""
  local deadline=$(( $(date +%s) + 30 ))
  while [ "$(date +%s)" -lt "$deadline" ]; do
    addr="$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$log")"
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "loadsmoke: server died during boot" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "loadsmoke: server never became ready" >&2; exit 1; }
}

# scrape_metrics <log> <pid>: same for the metrics sidecar banner. Sets
# $metrics_addr.
scrape_metrics() {
  local log="$1" pid="$2"
  metrics_addr=""
  local deadline=$(( $(date +%s) + 30 ))
  while [ "$(date +%s)" -lt "$deadline" ]; do
    metrics_addr="$(sed -n 's|.*metrics on http://\(127\.0\.0\.1:[0-9]*\)/metrics$|\1|p' "$log")"
    [ -n "$metrics_addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "loadsmoke: server died during boot" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$metrics_addr" ] || { echo "loadsmoke: metrics endpoint never became ready" >&2; exit 1; }
}

if [ -n "${LOADSMOKE_CLUSTER:-}" ]; then
  # Routed mode: N shards, one coordinator. The shards run without
  # admission budgets (the coordinator is the tested surface); the
  # coordinator exposes the metrics endpoint the cross-check scrapes.
  shard_addrs=()
  for i in $(seq 1 "$LOADSMOKE_CLUSTER"); do
    "$bin/graphjoind" -listen 127.0.0.1:0 > "$bin/shard$i.log" 2>&1 &
    cluster_pids+=($!)
    scrape_banner "$bin/shard$i.log" "${cluster_pids[-1]}"
    shard_addrs+=("$addr")
  done
  "$bin/graphjoind" -listen 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -route "$(IFS=,; echo "${shard_addrs[*]}")" > "$bin/server.log" 2>&1 &
  server_pid=$!
else
  "$bin/graphjoind" -listen 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -max-inflight 64 -max-queued 256 > "$bin/server.log" 2>&1 &
  server_pid=$!
fi
scrape_banner "$bin/server.log" "$server_pid"
serve_addr="$addr"
scrape_metrics "$bin/server.log" "$server_pid"

"$bin/graphjoinload" \
  -addr "$serve_addr" \
  -metrics-url "http://$metrics_addr/metrics" \
  -conns "${LOADSMOKE_CONNS:-4}" \
  -duration "${LOADSMOKE_DURATION:-5s}" \
  | tee load-smoke.json

kill -TERM "$server_pid"
wait "$server_pid" || { echo "loadsmoke: server exited non-zero" >&2; exit 1; }
server_pid=""
for pid in "${cluster_pids[@]}"; do
  kill -TERM "$pid" 2>/dev/null || true
  wait "$pid" || { echo "loadsmoke: cluster member exited non-zero" >&2; exit 1; }
done
cluster_pids=()
echo "loadsmoke: OK"
