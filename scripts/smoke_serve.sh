#!/bin/sh
# Serving smoke test: compile a ruleset to a sealed artifact, serve it with
# impala-serve, assert a known match over HTTP on both the one-shot and
# streaming endpoints, hot-reload the tenant, and verify SIGTERM drains
# cleanly. Run from the repository root (CI job: serve-smoke).
set -eu

workdir="$(mktemp -d)"
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build =="
go build -o "$workdir/impalac" ./cmd/impalac
go build -o "$workdir/impala-sim" ./cmd/impala-sim
go build -o "$workdir/impala-serve" ./cmd/impala-serve

echo "== compile + save artifact =="
"$workdir/impalac" -patterns 'GET /,needle' -o "$workdir/web.impala"
"$workdir/impala-sim" -load "$workdir/web.impala" -v

echo "== sharded artifact replays on its sealed shard plan =="
# impala-sim -load must execute a SHRD section (it announces the plan on
# stderr) and report exactly what the unsharded artifact reports.
printf 'xx needle GET / needle yy' > "$workdir/replay.bin"
"$workdir/impalac" -patterns 'GET /,needle' -shards 2 -tier -o "$workdir/web-sharded.impala" >/dev/null
want="$("$workdir/impala-sim" -load "$workdir/web.impala" -in "$workdir/replay.bin" -q | grep '^reports:')"
got="$("$workdir/impala-sim" -load "$workdir/web-sharded.impala" -in "$workdir/replay.bin" -q 2>"$workdir/replay.log" | grep '^reports:')"
echo "unsharded $want / sharded $got"
grep -q '^shard plan: 2 shards' "$workdir/replay.log" || { cat "$workdir/replay.log"; echo "sharded artifact did not run on its shard plan"; exit 1; }
[ -n "$want" ] && [ "$want" = "$got" ] || { echo "sharded replay diverges from unsharded"; exit 1; }

echo "== serve =="
addr="127.0.0.1:18613"
"$workdir/impala-serve" -load web="$workdir/web.impala" -listen "$addr" 2>"$workdir/serve.log" &
pid=$!
for i in $(seq 1 50); do
    if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
curl -sf "http://$addr/healthz" >/dev/null || { cat "$workdir/serve.log"; echo "server never came up"; exit 1; }

echo "== one-shot match =="
# "needle" (pattern 1) ends at byte 9 of "xx needle yy".
printf 'xx needle yy' > "$workdir/in.bin"
resp="$(curl -sf --data-binary @"$workdir/in.bin" "http://$addr/v1/web/match")"
echo "$resp"
echo "$resp" | grep -q '"end":9,"pattern":1' || { echo "expected match missing"; exit 1; }
echo "$resp" | grep -q '"generation":1' || { echo "expected generation 1"; exit 1; }

echo "== streaming match =="
sresp="$(curl -sf --data-binary @"$workdir/in.bin" -H 'Content-Type: application/octet-stream' "http://$addr/v1/web/stream")"
echo "$sresp"
echo "$sresp" | grep -q '"end":9,"pattern":1' || { echo "expected stream match missing"; exit 1; }
echo "$sresp" | grep -q '"done":true' || { echo "stream summary missing"; exit 1; }

echo "== hot reload =="
curl -sf -X POST "http://$addr/v1/web/reload" | grep -q '"generation":2' || { echo "reload did not bump generation"; exit 1; }
curl -sf --data-binary @"$workdir/in.bin" "http://$addr/v1/web/match" | grep -q '"generation":2' || { echo "post-reload match not on generation 2"; exit 1; }

echo "== graceful drain =="
kill -TERM "$pid"
for i in $(seq 1 50); do
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.2
done
if kill -0 "$pid" 2>/dev/null; then echo "server did not exit after SIGTERM"; exit 1; fi
wait "$pid" 2>/dev/null || true
pid=""
grep -q "drained cleanly" "$workdir/serve.log" || { cat "$workdir/serve.log"; echo "drain message missing"; exit 1; }

echo "smoke-serve: PASS"
