#!/bin/sh
# smoke.sh <serve|gateway|index|swap|redteam|all> — end-to-end smokes of
# the real binaries on ephemeral ports. Builds once, trains one tiny
# detector (+ similarity corpus) once, then runs one function per
# scenario; `all` runs the five in order. Each scenario states what it
# asserts above its function. Run from the repo root (`make smoke` does).
set -eu

case "${1:-}" in
serve | gateway | index | swap | redteam) SCENARIOS=$1 ;;
all) SCENARIOS="serve gateway index swap redteam" ;;
*)
	echo "usage: $0 <serve|gateway|index|swap|redteam|all>" >&2
	exit 2
	;;
esac

TMP=$(mktemp -d)
PIDS=""
S=setup
cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

say() { echo "smoke[$S]: $*"; }
fail() {
	echo "smoke[$S]: FAIL — $*" >&2
	exit 1
}

# start NAME BIN ARGS... — launch $TMP/BIN in the background, logging to
# $D/NAME.out and $D/NAME.err, and wait for the "BIN: listening on ADDR"
# line it prints once its listener is up. Sets PID and ADDR.
start() {
	_name=$1
	_bin=$2
	shift 2
	"$TMP/$_bin" "$@" >"$D/$_name.out" 2>"$D/$_name.err" &
	PID=$!
	PIDS="$PIDS $PID"
	ADDR=""
	_i=0
	while [ -z "$ADDR" ]; do
		if ! kill -0 "$PID" 2>/dev/null; then
			cat "$D/$_name.err" >&2
			fail "$_name died during startup"
		fi
		[ $_i -lt 100 ] || fail "$_name never reported its address"
		sleep 0.1
		_i=$((_i + 1))
		ADDR=$(sed -n "s/^$_bin: listening on \\([^ ]*\\).*/\\1/p" "$D/$_name.out")
	done
	say "$_name up at $ADDR (pid $PID)"
}

# start_replica NAME ARGS... — a serve process over the shared detector.
start_replica() {
	_rname=$1
	shift
	start "$_rname" serve -model "$TMP/det.gob" -addr 127.0.0.1:0 "$@"
}

# term NAME PID — SIGTERM the process and require a clean exit 0.
term() {
	kill -TERM "$2" 2>/dev/null || true
	_st=0
	wait "$2" || _st=$?
	if [ "$_st" -ne 0 ]; then
		cat "$D/$1.err" >&2
		fail "$1 exited $_st after SIGTERM"
	fi
}

# zero_drop NAME — the replica's drain accounting must report dropped=0.
zero_drop() {
	if ! grep -q 'dropped=0' "$D/$1.err"; then
		cat "$D/$1.err" >&2
		fail "$1 drain accounting does not report dropped=0"
	fi
}

# post PATH CONTENT-TYPE BODY — POST to the replica at $ADDR; the reply
# lands in OUT, any non-2xx status fails the scenario.
post() {
	OUT=$(curl -sf -X POST -H "Content-Type: $2" --data-binary "$3" "http://$ADDR$1") ||
		fail "POST $1 did not answer 200"
}

# expect PATTERN WHAT — OUT must match PATTERN.
expect() {
	echo "$OUT" | grep -q "$1" || fail "$2: $OUT"
}

# retrain_swap — train a candidate on a drifted window and hot-swap it
# into the replica at $ADDR over POST /admin/swap. Clean gates are fully
# permissive (the tiny windows make metrics noisy) and the evasion gates
# are skipped — gate selectivity is pinned by the lifecycle package
# tests; the smokes assert the wire path.
retrain_swap() {
	"$TMP/retrain" -model "$TMP/det.gob" -swap-url "http://$ADDR" \
		-benign 12 -malware 36 -epochs 5 \
		-max-acc-drop 1 -max-fnr-increase 1 -max-fpr-increase 1 -attack-samples -1 \
		>"$D/retrain.out" 2>"$D/retrain.err"
}

# The online detection service (DESIGN.md §9):
#   1. a fixed budget of loadgen requests all answer 200;
#   2. the batcher is work-conserving: batches ran, and the mean queue
#      wait under that load stays below 1 ms (a wait for batch peers on
#      an idle engine would by itself put it above);
#   3. SIGTERM in the middle of a live load drains cleanly — the server
#      exits 0 and its drain accounting reports dropped=0.
smoke_serve() {
	start_replica serve

	# loadgen exits non-zero on any transport error or non-200 status,
	# so its exit code is the assertion.
	"$TMP/loadgen" -addr "http://$ADDR" -requests 200 -conc 8 -programs 16

	# An unreachable /metrics leaves awk no batch count, which fails too.
	curl -sf "http://$ADDR/metrics" | awk '
		$1 == "advmal_queue_wait_seconds_sum" { sum = $2 }
		$1 == "advmal_queue_wait_seconds_count" { n = $2 }
		$1 == "advmal_batch_size_count" { batches = $2 }
		END {
			if (batches == 0) exit 1
			printf "%d batches, mean queue wait %.0f us\n", batches, 1e6 * sum / n
			exit (sum / n >= 0.001)
		}
	' || fail "no batch ran, or the mean batcher queue wait is 1 ms or more"

	# Background clients keep traffic flowing while the server drains;
	# their post-drain connection failures are expected
	# (-tolerate-errors) — the server's own accounting is the assertion.
	"$TMP/loadgen" -addr "http://$ADDR" -duration 2s -conc 8 -tolerate-errors \
		>/dev/null 2>&1 &
	_load=$!
	sleep 0.5
	say "sending SIGTERM mid-load"
	term serve "$PID"
	wait "$_load" 2>/dev/null || true
	zero_drop serve
	grep 'drained' "$D/serve.err"
}

# The fault-tolerant gateway over three chaos-armed replicas
# (DESIGN.md §10):
#   1. a fixed budget of loadgen requests through the gateway all
#      answer 200;
#   2. kill one replica mid-load: every client request still answers
#      200 (the survivors absorb the dead replica's shards), and the
#      gateway's /metrics records the health-check ejection;
#   3. SIGTERM the gateway and the surviving replicas mid-load: each
#      exits 0 and each replica's drain accounting reports dropped=0.
smoke_gateway() {
	_addrs=""
	for _n in 1 2 3; do
		start_replica "serve$_n" -chaos
		_addrs="$_addrs,$ADDR"
		eval "_pid$_n=$PID"
	done
	_addrs=${_addrs#,}
	start gateway gateway -addr 127.0.0.1:0 -backends "$_addrs" -health-interval 100ms
	_gw=$ADDR
	_gwpid=$PID

	say "phase 1 — clean cluster"
	"$TMP/loadgen" -addr "http://$_gw" -requests 300 -conc 8 -programs 16

	# Kill via the chaos surface (the replica os.Exit(137)s itself — a
	# crash, not a drain) and keep asserting zero server failures
	# through the gateway. -strict makes loadgen's exit code the
	# assertion: any transport error or 5xx fails the run, shed 4xx load
	# would not.
	_victim=${_addrs%%,*}
	say "phase 2 — killing replica $_victim mid-load"
	"$TMP/loadgen" -addr "http://$_gw" -duration 4s -conc 8 -programs 16 -strict \
		-chaos "at=1s,url=http://$_victim,mode=kill"
	_st=0
	wait "$_pid1" 2>/dev/null || _st=$?
	[ "$_st" -eq 137 ] || fail "victim exited $_st, want 137 (chaos kill)"

	# The health checker must have ejected the dead replica by now.
	if ! curl -sf "http://$_gw/metrics" | grep -q '^gateway_ejections_total [1-9]'; then
		curl -s "http://$_gw/metrics" | grep -E 'eject|healthy' >&2 || true
		fail "gateway never recorded the ejection"
	fi
	say "ejection recorded; routable shards stayed 200"

	say "phase 3 — SIGTERM mid-load"
	"$TMP/loadgen" -addr "http://$_gw" -duration 2s -conc 8 -tolerate-errors \
		>/dev/null 2>&1 &
	_load=$!
	sleep 0.5
	term gateway "$_gwpid"
	grep 'drained' "$D/gateway.err"
	term serve2 "$_pid2"
	term serve3 "$_pid3"
	zero_drop serve2
	zero_drop serve3
	wait "$_load" 2>/dev/null || true
}

# The similarity layer, detector and corpus served together
# (DESIGN.md §11):
#   1. /v1/similar with a raw-vector query answers 200 with k hits and a
#      non-empty family attribution;
#   2. /v1/similar with an assembly program answers 200 and an
#      off-manifold toy program comes back triage-flagged;
#   3. /v1/classify carries the triage block when an index is loaded.
smoke_index() {
	start_replica serve -index "$TMP/corpus.gob"
	_toy='movi r0, 1
ret
'
	post '/v1/similar?k=5' application/json \
		'{"vector":[120,14,3,8,2,1,4,2.5,1.5,0.8,6,2,9,3,1,0.5,0.2,0.1,4,2,1,0.5,0.3]}'
	expect '"family":"[a-z]' "no family attribution"
	expect '"hits":\[{' "no hits"
	say "vector query attributed a family"

	post /v1/similar text/plain "$_toy"
	expect '"flagged":true' "toy program not triage-flagged"
	say "off-manifold program triage-flagged"

	post /v1/classify text/plain "$_toy"
	expect '"triage":{' "classify verdict missing triage block"
	say "classify verdict carries triage"

	kill "$PID"
	wait "$PID" 2>/dev/null || true
}

# The canary-gated hot-swap path on one admin-armed replica
# (DESIGN.md §13):
#   1. with client load running continuously against the replica, the
#      external retrain driver trains a candidate, passes the canary
#      gates, and hot-swaps it in over POST /admin/swap;
#   2. not a single client request fails across the swap — loadgen runs
#      without -tolerate-errors, so any non-200 fails the scenario;
#   3. the replica's /metrics reports the new version and the swap
#      count, /v1/model agrees, and the drain reports dropped=0.
smoke_swap() {
	start_replica serve -admin

	say "starting continuous load"
	"$TMP/loadgen" -addr "http://$ADDR" -duration 25s -conc 8 -programs 16 \
		>"$D/load.out" 2>"$D/load.err" &
	_load=$!
	PIDS="$PIDS $_load"

	say "retraining and swapping a candidate in"
	retrain_swap
	cat "$D/retrain.out"

	if ! kill -0 "$_load" 2>/dev/null; then
		cat "$D/load.err" >&2
		fail "load generator exited before the swap landed"
	fi

	if ! curl -sf "http://$ADDR/metrics" | grep -q '^advmal_model_version 2$'; then
		curl -s "http://$ADDR/metrics" | grep -E 'model_version|swaps' >&2 || true
		fail "/metrics does not report model version 2"
	fi
	curl -sf "http://$ADDR/metrics" | grep -q '^advmal_model_swaps_total 1$' ||
		fail "/metrics does not report exactly one swap"
	curl -sf "http://$ADDR/v1/model" | grep -q '"version":2' ||
		fail "/v1/model does not report version 2"
	say "replica serves v2 after one hot swap"

	# Zero dropped requests: the load that spanned the swap must exit 0.
	if ! wait "$_load"; then
		cat "$D/load.out" "$D/load.err" >&2
		fail "client load saw errors across the hot swap"
	fi
	grep -E 'requests|by_status' "$D/load.out" || true

	term serve "$PID"
	zero_drop serve
}

# The live attack-replay harness (DESIGN.md §14): a paced mixed campaign
# (eight feature-space attacks + GEA splices + clean controls) against
# one admin-armed replica while a retrain hot-swaps a new model in
# mid-campaign. The scorecard must show:
#   1. zero transport errors and zero HTTP errors — every item answered;
#   2. nonzero evasion — the white-box campaign actually evades the
#      served model, so the harness is measuring something real;
#   3. triage counters present — the /v1/similar side query is scored
#      (unavailable on this index-less replica, and said so explicitly);
#   4. verdicts attributed to at least two model versions with a
#      per-attack robustness delta — the hot swap was measured as a
#      before/after population split, not averaged away.
smoke_redteam() {
	start_replica serve -admin
	_srv=$PID

	# ~200 items at 15 req/s spans >10s, leaving a wide window for the
	# swap to land between items.
	say "launching paced campaign"
	"$TMP/redteam" -target "http://$ADDR" -model "$TMP/det.gob" \
		-per-cell 2 -rps 15 -similar -json \
		>"$D/rep.json" 2>"$D/redteam.err" &
	_rt=$!
	PIDS="$PIDS $_rt"

	# Generation happens before any traffic flows; wait for the replay
	# phase to start, then let a slice of the campaign be served by the
	# original model before swapping.
	_i=0
	while ! grep -q 'campaign ready' "$D/redteam.err" 2>/dev/null; do
		if ! kill -0 "$_rt" 2>/dev/null; then
			cat "$D/redteam.err" >&2
			fail "campaign exited before replay started"
		fi
		_i=$((_i + 1))
		[ $_i -le 600 ] || fail "campaign generation never finished"
		sleep 0.1
	done
	sleep 3

	say "retraining and swapping mid-campaign"
	retrain_swap
	if ! kill -0 "$_rt" 2>/dev/null; then
		cat "$D/redteam.err" >&2
		fail "campaign ended before the swap landed"
	fi
	_st=0
	wait "$_rt" || _st=$?
	if [ "$_st" -ne 0 ]; then
		cat "$D/redteam.err" >&2
		fail "redteam exited $_st"
	fi

	if ! grep -q '"transport_errors": 0' "$D/rep.json" ||
		! grep -q '"http_errors": 0' "$D/rep.json"; then
		grep -E 'errors|first_error' "$D/rep.json" >&2 || true
		fail "campaign saw transport or HTTP errors"
	fi
	say "zero transport/HTTP errors"

	grep -q '"evaded": [1-9]' "$D/rep.json" || fail "no cell reports nonzero evasion"
	say "nonzero evasion measured"

	if ! grep -q '"triage"' "$D/rep.json" ||
		! grep -q '"unavailable": true' "$D/rep.json"; then
		fail "triage counters missing from scorecard"
	fi
	say "triage counters present"

	_versions=$(grep -o '"version": [0-9]*' "$D/rep.json" | sort -u | wc -l)
	if [ "$_versions" -lt 2 ]; then
		grep -E '"version"|"deltas"' "$D/rep.json" >&2 || true
		fail "verdicts attributed to fewer than two model versions"
	fi
	grep -q '"old_version"' "$D/rep.json" ||
		fail "no per-attack robustness delta across the swap"
	say "robustness delta measured across $_versions model versions"

	kill -TERM "$_srv"
	wait "$_srv" || true
}

say "building binaries"
go build -o "$TMP" ./cmd/serve ./cmd/gateway ./cmd/loadgen ./cmd/repro ./cmd/retrain ./cmd/redteam

say "training a tiny detector + similarity corpus"
"$TMP/repro" train -model "$TMP/det.gob" -index "$TMP/corpus.gob" \
	-benign 20 -malware 60 -epochs 15 >/dev/null

for S in $SCENARIOS; do
	D="$TMP/log-$S"
	mkdir "$D"
	"smoke_$S"
	PIDS=""
	say PASS
done
