#!/usr/bin/env bash
# Loopback smoke test for `aiio serve`: bind an ephemeral port, drive the
# full API surface through `aiio client` (single, batch, overflow-sized
# batch, metrics scrape, hot reload), then shut down gracefully and check
# the server exits 0. Two store passes follow, one on a plain store and
# one on a 2-shard fleet: ingest a row and read it back with GET /query,
# see a malformed row answer 422, and restart on the same directory with
# the row count unchanged. Rows are POSTed with curl. CI runs this
# against the release binary.
set -euo pipefail

AIIO="${AIIO:-cargo run --release -q -p aiio-cli --}"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "== preparing a trained service =="
$AIIO sample --jobs 200 --seed 6 --noise 0 --out "$WORKDIR/db.json"
$AIIO train --fast --db "$WORKDIR/db.json" --out "$WORKDIR/model.json"
$AIIO simulate "ior -w -t 1k -b 1m -Y" --json --out "$WORKDIR/job1.json"
$AIIO simulate "ior -r -t 1k -b 1m" --out "$WORKDIR/job2.txt"

# Start `aiio serve` on an ephemeral port with extra flags "$@"; sets
# SERVER_PID and ADDR.
start_server() {
    $AIIO serve --model "$WORKDIR/model.json" --addr 127.0.0.1:0 "$@" \
        >"$WORKDIR/serve.out" &
    SERVER_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^listening on //p' "$WORKDIR/serve.out" | head -n1)"
        [[ -n "$ADDR" ]] && break
        kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died before binding"; exit 1; }
        sleep 0.2
    done
    [[ -n "$ADDR" ]] || { echo "server never announced its address"; exit 1; }
    echo "   listening on $ADDR"
}

client() { $AIIO client --addr "$ADDR" "$@"; }

# Graceful shutdown; the server must exit 0.
stop_server() {
    client shutdown | grep -q '"shutting_down":true'
    wait "$SERVER_PID"
    SERVER_PID=""
}

echo "== starting the server on an ephemeral port =="
start_server --workers 4 --queue 8 --max-connections 8

echo "== health =="
client health | grep -q '"status":"ok"'

echo "== single diagnosis (JSON log) =="
client diagnose "$WORKDIR/job1.json" | grep -q '"bottlenecks"'

echo "== single diagnosis (darshan text log) =="
client diagnose "$WORKDIR/job2.txt" | grep -q '"bottlenecks"'

echo "== batch diagnosis =="
client batch "$WORKDIR/job1.json" "$WORKDIR/job2.txt" "$WORKDIR/job1.json" \
    | grep -q '^\['

echo "== oversized batch is refused with 413, not buffered =="
BIG=()
for _ in $(seq 1 9); do BIG+=("$WORKDIR/job1.json"); done
if client batch "${BIG[@]}" >"$WORKDIR/big.out" 2>&1; then
    echo "expected the 9-job batch to exceed the 8-deep queue"; exit 1
fi
grep -q "queue capacity" "$WORKDIR/big.out"

echo "== hot reload =="
client reload --path "$WORKDIR/model.json" | grep -q '"reloaded":true'

echo "== metrics scrape =="
client metrics >"$WORKDIR/metrics.out"
grep -q 'aiio_requests_total{endpoint="diagnose"} 2' "$WORKDIR/metrics.out"
# Two batch requests: the accepted 3-job batch and the 413-refused 9-job
# one — refusals are still requests, and the error counter must say so.
grep -q 'aiio_requests_total{endpoint="diagnose_batch"} 2' "$WORKDIR/metrics.out"
grep -q 'aiio_request_errors_total{endpoint="diagnose_batch"} 1' "$WORKDIR/metrics.out"
grep -q 'aiio_reloads_total 1' "$WORKDIR/metrics.out"
grep -q 'aiio_queue_depth' "$WORKDIR/metrics.out"
grep -q 'aiio_inference_total' "$WORKDIR/metrics.out"
# The scrape's own connection is open; sequential clients never hit the cap.
grep -q '^aiio_connections_open [1-9]' "$WORKDIR/metrics.out"
grep -q '^aiio_connections_rejected_total 0$' "$WORKDIR/metrics.out"

echo "== graceful shutdown =="
stop_server

# POST body "$2" to path "$1"; prints the status, leaves the body in
# post.out.
post() {
    curl -s -o "$WORKDIR/post.out" -w '%{http_code}' -XPOST \
        "http://$ADDR$1" --data-binary "$2"
}

store_rows() { client metrics | sed -n 's/^aiio_store_rows //p'; }

# Three counters instead of 46: must be refused, never stored.
SHORT='{"job_id":99,"app":"bad","year":2022,"counters":{"values":[1,2,3]},
"time":{"total_read_time":0,"total_write_time":0,"total_meta_time":0,"slowest_rank_seconds":1}}'

# One store pass: label "$1", extra serve flags "${@:2}".
store_pass() {
    local dir="$WORKDIR/$1.store"
    shift
    start_server --store "$dir" "$@"
    status="$(post /ingest @"$WORKDIR/job1.json")"
    [[ "$status" == 200 ]] || { echo "ingest answered $status"; cat "$WORKDIR/post.out"; exit 1; }
    grep -q '"ingested":1' "$WORKDIR/post.out"
    $AIIO query --addr "$ADDR" --counter POSIX_WRITES --min 1 --json \
        | grep -q '"returned":1'
    status="$(post /ingest "$SHORT")"
    [[ "$status" == 422 ]] || { echo "malformed row answered $status"; exit 1; }
    [[ "$(store_rows)" == 1 ]] || { echo "store rows changed after a 422"; exit 1; }
    stop_server
    start_server --store "$dir" "$@"
    [[ "$(store_rows)" == 1 ]] || { echo "row count changed across a restart"; exit 1; }
    $AIIO query --addr "$ADDR" --counter POSIX_WRITES --min 1 --json \
        | grep -q '"returned":1'
    stop_server
}

echo "== plain store: ingest, query, 422, restart =="
store_pass plain

echo "== 2-shard fleet: ingest, query, 422, restart =="
store_pass fleet --shards 2

echo "serve smoke: all checks passed"
