#!/bin/sh
# Cluster smoke test: compile a ruleset and a scored edit-distance mesh into
# topology-sealed artifacts, deploy them as two domain workers behind a
# frontend, assert a known match through the fan-out on both the one-shot and
# streaming endpoints and the scored tenant's rows against a single process,
# kill one worker and assert the explicit partial-result degradation, then
# verify SIGTERM drains the frontend cleanly. Run from the repository root
# (CI job: cluster-smoke).
set -eu

workdir="$(mktemp -d)"
w0pid=""
w1pid=""
fepid=""
spid=""
cleanup() {
    for p in "$fepid" "$w0pid" "$w1pid" "$spid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build =="
go build -o "$workdir/impalac" ./cmd/impalac
go build -o "$workdir/impala-serve" ./cmd/impala-serve

echo "== compile + seal topology placement =="
cat > "$workdir/topo.json" <<'EOF'
{"domains": [{"name": "node0"}, {"name": "node1"}]}
EOF
"$workdir/impalac" -patterns 'GET /,needle' -shards 2 -topo "$workdir/topo.json" -o "$workdir/web.impala" | tee "$workdir/compile.log"
grep -q 'topology' "$workdir/compile.log" || { echo "compile printed no placement"; exit 1; }
"$workdir/impalac" -score lev -patterns 'needle,haystack' -score-d 1 -score-threshold 3 -shards 2 -topo "$workdir/topo.json" \
    -o "$workdir/align.impala" | tee "$workdir/compile-align.log"
grep -q 'score table' "$workdir/compile-align.log" || { echo "scored compile printed no score table"; exit 1; }

echo "== start 2 workers + frontend =="
w0="127.0.0.1:18621"
w1="127.0.0.1:18622"
fe="127.0.0.1:18620"
single="127.0.0.1:18623"
"$workdir/impala-serve" -role worker -domain node0 -load web="$workdir/web.impala" -load align="$workdir/align.impala" \
    -listen "$w0" 2>"$workdir/w0.log" &
w0pid=$!
"$workdir/impala-serve" -role worker -domain node1 -load web="$workdir/web.impala" -load align="$workdir/align.impala" \
    -listen "$w1" 2>"$workdir/w1.log" &
w1pid=$!
"$workdir/impala-serve" -load align="$workdir/align.impala" -listen "$single" 2>"$workdir/single.log" &
spid=$!
"$workdir/impala-serve" -role frontend -workers "node0=http://$w0,node1=http://$w1" \
    -health-interval 200ms -listen "$fe" 2>"$workdir/fe.log" &
fepid=$!
for i in $(seq 1 50); do
    if curl -s "http://$fe/healthz" 2>/dev/null | grep -q '"healthy":2'; then break; fi
    sleep 0.2
done
curl -s "http://$fe/healthz" | grep -q '"healthy":2' || {
    cat "$workdir/w0.log" "$workdir/w1.log" "$workdir/fe.log"
    echo "cluster never became healthy"; exit 1
}
curl -sf "http://$fe/v1/workers" | grep -q '"name":"node0"' || { echo "worker listing missing node0"; exit 1; }
for i in $(seq 1 50); do
    if curl -s "http://$single/healthz" 2>/dev/null | grep -q '"status":"ok"'; then break; fi
    sleep 0.2
done

echo "== one-shot match through the fan-out =="
# "needle" (pattern 1) ends at byte 9 of "xx needle yy".
printf 'xx needle yy' > "$workdir/in.bin"
resp="$(curl -sf --data-binary @"$workdir/in.bin" "http://$fe/v1/web/match")"
echo "$resp"
echo "$resp" | grep -q '"end":9,"pattern":1' || { echo "expected merged match missing"; exit 1; }

echo "== streaming match through the fan-out =="
sresp="$(curl -sf --data-binary @"$workdir/in.bin" -H 'Content-Type: application/octet-stream' "http://$fe/v1/web/stream")"
echo "$sresp"
echo "$sresp" | grep -q '"end":9,"pattern":1' || { echo "expected stream match missing"; exit 1; }
echo "$sresp" | grep -q '"done":true' || { echo "stream summary missing"; exit 1; }
echo "$sresp" | grep -q '"partial"' && { echo "healthy stream flagged partial"; exit 1; }

echo "== scored tenant: the fan-out's rows are the single process's =="
# Reads of both patterns, exact and with one edit, each worker scoring its own
# shard; the rows (not the elapsed_us clock reading) must be identical.
printf 'xx needle yy neddle zz haystack hayztack' > "$workdir/reads.bin"
rows() { curl -sf --data-binary @"$workdir/reads.bin" "http://$1/v1/align/match" | sed 's/.*"matches":\(\[.*\]\),"elapsed_us".*/\1/'; }
frows="$(rows "$fe")"
srows="$(rows "$single")"
echo "$frows"
[ "$frows" = "$srows" ] || { echo "frontend scored rows differ from the single process's: $srows"; exit 1; }
# "needle" (pattern 1) ends at byte 9 with 6 matches, "haystack" (pattern 2)
# at byte 31 with 8; each worker scores its own shard only.
echo "$frows" | grep -q '"end":9,"pattern":1,"score":6}' || { echo "expected scored match missing"; exit 1; }
echo "$frows" | grep -q '"end":31,"pattern":2,"score":8}' || { echo "expected scored match missing"; exit 1; }
for w in "$w0" "$w1"; do
    [ "$(rows "$w")" != "$frows" ] || { echo "worker $w scores every row"; exit 1; }
done

echo "== kill one worker: explicit partial degradation =="
kill -9 "$w1pid" 2>/dev/null || true
wait "$w1pid" 2>/dev/null || true
w1pid=""
code="$(curl -s -o "$workdir/partial.json" -w '%{http_code}' --data-binary @"$workdir/in.bin" "http://$fe/v1/web/match")"
cat "$workdir/partial.json"
[ "$code" = "502" ] || { echo "degraded match returned $code, want 502"; exit 1; }
grep -q 'partial result' "$workdir/partial.json" || { echo "partial error text missing"; exit 1; }
grep -q '"failed_workers":\["node1"\]' "$workdir/partial.json" || { echo "failed worker not named"; exit 1; }
for i in $(seq 1 50); do
    if curl -s "http://$fe/healthz" | grep -q '"status":"degraded"'; then break; fi
    sleep 0.2
done
curl -s "http://$fe/healthz" | grep -q '"status":"degraded"' || { echo "health never degraded"; exit 1; }

echo "== graceful drain =="
kill -TERM "$fepid"
for i in $(seq 1 50); do
    if ! kill -0 "$fepid" 2>/dev/null; then break; fi
    sleep 0.2
done
if kill -0 "$fepid" 2>/dev/null; then echo "frontend did not exit after SIGTERM"; exit 1; fi
wait "$fepid" 2>/dev/null || true
fepid=""
grep -q "drained cleanly" "$workdir/fe.log" || { cat "$workdir/fe.log"; echo "drain message missing"; exit 1; }

echo "smoke-cluster: PASS"
