#!/usr/bin/env bash
# Client/server integration smoke (the CI `integration` job, runnable
# locally as `make integration`): build graphjoind and graphjoin, boot the
# server on a loopback port, run scripted remote queries, and compare the
# counts against an identical in-process run. Fails on any non-zero exit or
# count mismatch, and checks the dial-failure and graceful-shutdown paths.
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
server_pid=""
# cleanup always runs (trap EXIT): it reaps a leftover server and, when the
# script is failing, dumps every server log before the temp dir vanishes —
# the CI job's only window into why a boot or query went wrong.
cluster_pids=()
cleanup() {
  status=$?
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  for pid in "${cluster_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  if [ "$status" -ne 0 ]; then
    for log in "$bin"/*.log; do
      [ -f "$log" ] || continue
      echo "integration: ---- $(basename "$log") ----" >&2
      cat "$log" >&2
    done
  fi
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/graphjoind" ./cmd/graphjoind
go build -o "$bin/graphjoin" ./cmd/graphjoin

graph_flags=(-model ba -nodes 2000 -edges 9000 -seed 7 -selectivity 10)

# boot <logfile> [flags...]: start graphjoind on an ephemeral port and scrape
# the bound address from the serving banner (recovery banners print first and
# don't match the pattern). The scrape retries against a wall-clock deadline
# rather than a fixed iteration count, so a recovery replay or a slow CI
# runner cannot outlast the loop. Sets $server_pid and $addr.
boot() {
  local log="$1"; shift
  "$bin/graphjoind" -listen 127.0.0.1:0 "$@" > "$log" 2>&1 &
  server_pid=$!
  addr=""
  local deadline=$(( $(date +%s) + 30 ))
  while [ "$(date +%s)" -lt "$deadline" ]; do
    addr="$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$log")"
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "integration: server died during boot" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "integration: server never became ready" >&2; exit 1; }
}

boot "$bin/server.log" "${graph_flags[@]}"

# "engine: N results in ..." -> N
extract() { sed -n 's/^[a-z]*: \([0-9][0-9]*\) results.*/\1/p'; }

want="$("$bin/graphjoin" "${graph_flags[@]}" -query 3-clique -engine lftj | extract)"
[ -n "$want" ] || { echo "integration: local run produced no count" >&2; exit 1; }

for engine in lftj ms; do
  got="$("$bin/graphjoin" -connect "$addr" -query 3-clique -engine "$engine" | extract)"
  if [ "$got" != "$want" ]; then
    echo "integration: $engine remote count $got != local $want" >&2
    exit 1
  fi
  echo "integration: $engine remote count $got matches local"
done

# -explain over the wire: the server renders its local handle's plan.
"$bin/graphjoin" -connect "$addr" -query 3-clique -explain > "$bin/explain.log" 2>&1 \
  || { echo "integration: remote -explain failed" >&2; cat "$bin/explain.log" >&2; exit 1; }
grep -q '^gao ' "$bin/explain.log" \
  || { echo "integration: remote -explain printed no gao line:" >&2; cat "$bin/explain.log" >&2; exit 1; }
echo "integration: remote -explain: $(grep '^gao ' "$bin/explain.log")"

# The same pattern as inline Datalog against the remote schema.
got="$("$bin/graphjoin" -connect "$addr" -datalog 'fwd(a,b), fwd(a,c), fwd(b,c)' | extract)"
if [ "$got" != "$want" ]; then
  echo "integration: datalog remote count $got != local $want" >&2
  exit 1
fi

# A failed dial must exit non-zero with a one-line error (no panic).
if "$bin/graphjoin" -connect 127.0.0.1:1 -query 3-clique > "$bin/dial.log" 2>&1; then
  echo "integration: dial to a dead port did not fail" >&2
  exit 1
fi
if [ "$(wc -l < "$bin/dial.log")" -ne 1 ]; then
  echo "integration: dial failure was not a one-line error:" >&2
  cat "$bin/dial.log" >&2
  exit 1
fi

# A baseline engine name is not a serving engine: the server rejects it, and
# graphjoin exits 1 with one stderr line naming the unknown algorithm.
status=0
"$bin/graphjoin" -connect "$addr" -query 3-clique -engine psql > /dev/null 2> "$bin/engine.log" || status=$?
if [ "$status" -ne 1 ] || [ "$(wc -l < "$bin/engine.log")" -ne 1 ] \
  || ! grep -q 'unknown algorithm "psql"' "$bin/engine.log"; then
  echo "integration: -engine psql did not fail with one unknown-algorithm line (exit $status):" >&2
  cat "$bin/engine.log" >&2
  exit 1
fi
echo "integration: -engine psql rejected: $(cat "$bin/engine.log")"

# Graceful shutdown on SIGTERM.
kill -TERM "$server_pid"
for _ in $(seq 1 50); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
  echo "integration: server ignored SIGTERM" >&2
  exit 1
fi
wait "$server_pid" || { echo "integration: server exited non-zero" >&2; exit 1; }
server_pid=""
grep -q "bye" "$bin/server.log" || { echo "integration: no clean shutdown banner" >&2; exit 1; }

# Durability: churn writes over the wire, kill -9 the server, restart it on
# the same -data-dir, and require every acknowledged count to survive.
data_dir="$bin/data"
boot "$bin/server-durable.log" "${graph_flags[@]}" -data-dir "$data_dir" -fsync always
grep -q "fresh data dir" "$bin/server-durable.log" \
  || { echo "integration: no fresh-data-dir banner" >&2; cat "$bin/server-durable.log" >&2; exit 1; }

# Write a new relation through the client (define + load are remote writes),
# alongside the seeded graph, and record both counts before the crash.
seq 1 500 | awk '{print $1, $1 % 97}' > "$bin/extra.rows"
extra_want="$("$bin/graphjoin" -connect "$addr" -relation extra:2 -load "extra=$bin/extra.rows" -datalog 'extra(a, b)' | extract)"
tri_want="$("$bin/graphjoin" -connect "$addr" -query 3-clique -engine lftj | extract)"
[ -n "$extra_want" ] && [ -n "$tri_want" ] || { echo "integration: pre-crash counts missing" >&2; exit 1; }

# The compound redirect silences bash's asynchronous "Killed" job notice.
{ kill -9 "$server_pid" && wait "$server_pid"; } 2>/dev/null || true
server_pid=""

boot "$bin/server-recovered.log" "${graph_flags[@]}" -data-dir "$data_dir" -fsync always
grep -q "recovered" "$bin/server-recovered.log" \
  || { echo "integration: no recovery banner after restart" >&2; cat "$bin/server-recovered.log" >&2; exit 1; }

tri_got="$("$bin/graphjoin" -connect "$addr" -query 3-clique -engine lftj | extract)"
extra_got="$("$bin/graphjoin" -connect "$addr" -datalog 'extra(a, b)' | extract)"
if [ "$tri_got" != "$tri_want" ] || [ "$extra_got" != "$extra_want" ]; then
  echo "integration: post-recovery counts tri=$tri_got/$tri_want extra=$extra_got/$extra_want" >&2
  exit 1
fi
echo "integration: counts survived kill -9 (tri=$tri_got, extra=$extra_got)"

# Graceful shutdown writes a final checkpoint, so the next start is
# replay-free from a snapshot.
kill -TERM "$server_pid"
for _ in $(seq 1 50); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
wait "$server_pid" || { echo "integration: durable server exited non-zero" >&2; exit 1; }
server_pid=""
ls "$data_dir"/default/snap-*.snap > /dev/null 2>&1 \
  || { echo "integration: no checkpoint snapshot after clean shutdown" >&2; exit 1; }

# --- Distributed layer: a 3-node cluster behind a routed graphjoind ---------
# Boot three graphjoind hosts with identical replicated data, front them with
# a fourth graphjoind whose default store routes over them (-route), and
# require routed counts to match the in-process run. Then kill -9 one shard
# and require a one-line typed error (not a hang, not a panic) through an
# unmodified graphjoin -connect.

# boot_member <logfile> [flags...]: like boot, but for cluster members —
# appends to cluster_pids instead of claiming the singleton server_pid.
boot_member() {
  local log="$1"; shift
  "$1" -listen 127.0.0.1:0 "${@:2}" > "$log" 2>&1 &
  cluster_pids+=($!)
  addr=""
  local deadline=$(( $(date +%s) + 30 ))
  while [ "$(date +%s)" -lt "$deadline" ]; do
    addr="$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$log")"
    [ -n "$addr" ] && break
    kill -0 "${cluster_pids[-1]}" 2>/dev/null || { echo "integration: cluster member died during boot" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "integration: cluster member never became ready" >&2; exit 1; }
}

shard_addrs=()
for i in 1 2 3; do
  boot_member "$bin/shard$i.log" "$bin/graphjoind" "${graph_flags[@]}"
  shard_addrs+=("$addr")
done
hosts="$(IFS=,; echo "${shard_addrs[*]}")"

# There is one partition rule and no flag choosing one: -partition is an
# unknown flag, reported on one stderr line.
status=0
"$bin/graphjoind" -route "$hosts" -partition hash > /dev/null 2> "$bin/partition.log" || status=$?
if [ "$status" -eq 0 ] || [ "$(wc -l < "$bin/partition.log")" -ne 1 ]; then
  echo "integration: -partition hash did not fail with one stderr line (exit $status):" >&2
  cat "$bin/partition.log" >&2
  exit 1
fi
echo "integration: -partition rejected: $(cat "$bin/partition.log")"

boot_member "$bin/router.log" "$bin/graphjoind" -route "$hosts"
router_addr="$addr"
for engine in lftj ms; do
  got="$("$bin/graphjoin" -connect "$router_addr" -query 3-clique -engine "$engine" | extract)"
  if [ "$got" != "$want" ]; then
    echo "integration: routed ($engine) count $got != local $want" >&2
    exit 1
  fi
  echo "integration: routed ($engine) count $got matches local"
done

# -explain through the router: its routing decision, then host 0's plan.
"$bin/graphjoin" -connect "$router_addr" -query 3-clique -explain > "$bin/explain-routed.log" 2>&1 \
  || { echo "integration: routed -explain failed" >&2; cat "$bin/explain-routed.log" >&2; exit 1; }
for line in '^routing: ' '^host 0 plan:'; do
  grep -q "$line" "$bin/explain-routed.log" \
    || { echo "integration: routed -explain missing $line:" >&2; cat "$bin/explain-routed.log" >&2; exit 1; }
done
echo "integration: routed -explain: $(grep '^routing: ' "$bin/explain-routed.log")"

# --- End-to-end tracing ----------------------------------------------------
# One traced query through the router must print a single stitched span tree:
# the client root, one router.leg per shard, each shard's server handling,
# and the engine execution inside it.
"$bin/graphjoin" -connect "$router_addr" -query 3-clique -engine lftj -trace > "$bin/trace.log" 2>&1 \
  || { echo "integration: traced routed query failed" >&2; cat "$bin/trace.log" >&2; exit 1; }
for stage in client.query server.count router.leg engine.count; do
  grep -q "$stage" "$bin/trace.log" \
    || { echo "integration: trace missing stage $stage:" >&2; cat "$bin/trace.log" >&2; exit 1; }
done
legs="$(grep -c 'router\.leg' "$bin/trace.log")"
if [ "$legs" -ne 3 ]; then
  echo "integration: trace shows $legs router legs, want 3:" >&2
  cat "$bin/trace.log" >&2
  exit 1
fi
echo "integration: traced routed query rendered a full span tree ($legs legs)"

# Slow-query log: a server with a 1ms threshold must log an artificially slow
# query (a full 4-clique enumerate) as a JSON line carrying the trace.
boot_member "$bin/slow-server.log" "$bin/graphjoind" "${graph_flags[@]}" \
  -slow-query-ms 1 -slow-query-log "$bin/slow.json"
slow_addr="$addr"
"$bin/graphjoin" -connect "$slow_addr" -query 4-clique -engine lftj > /dev/null
for field in '"trace_id"' '"spans"' '"fingerprint"' '"dur_ms"'; do
  grep -q "$field" "$bin/slow.json" \
    || { echo "integration: slow-query log missing $field:" >&2; cat "$bin/slow.json" >&2; exit 1; }
done
grep -q '"type":"count"' "$bin/slow.json" \
  || { echo "integration: no slow count entry:" >&2; cat "$bin/slow.json" >&2; exit 1; }
echo "integration: slow query landed in the slow-query log"

# kill -9 one shard: the routed query must fail promptly with a one-line
# typed router error naming the dead host — no hang, no silent partial rows.
{ kill -9 "${cluster_pids[1]}" && wait "${cluster_pids[1]}"; } 2>/dev/null || true
if timeout 30 "$bin/graphjoin" -connect "$router_addr" -query 3-clique -engine lftj > "$bin/killed.log" 2>&1; then
  echo "integration: routed query succeeded with a dead shard" >&2
  exit 1
fi
if ! grep -q 'router: host [0-9]' "$bin/killed.log"; then
  echo "integration: no typed router error after shard kill:" >&2
  cat "$bin/killed.log" >&2
  exit 1
fi
if [ "$(grep -c 'router: host' "$bin/killed.log")" -ne 1 ]; then
  echo "integration: shard-kill error was not one line:" >&2
  cat "$bin/killed.log" >&2
  exit 1
fi
echo "integration: shard kill surfaced as: $(grep 'router: host' "$bin/killed.log")"

echo "integration: OK"
