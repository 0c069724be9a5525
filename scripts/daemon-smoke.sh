#!/usr/bin/env bash
# Drives the real tcserved and tcgate binaries through what Go tests
# cannot reach, their signal handling: one node and a gateway on
# loopback, one job through the gateway, then SIGQUIT (each daemon
# writes a span-ring dump and keeps serving) and SIGTERM (each drains,
# logs "drained" and exits 0). Everything lives in a temporary
# directory that is removed on exit.
#
# Usage, from the repository root: bash scripts/daemon-smoke.sh
set -euo pipefail

work=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill -9 "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "daemon-smoke: $*" >&2
	for f in "$work"/*.log; do
		[ -e "$f" ] && { echo "--- ${f##*/}" >&2; cat "$f" >&2; }
	done
	exit 1
}

# start NAME ARGS...: runs the daemon in the background and sets url
# from the "listening on" line it prints.
start() {
	local name=$1
	shift
	"$work/$name" "$@" -flight-dir "$work/flight" >"$work/$name.out" 2>"$work/$name.log" &
	pids+=($!)
	for _ in $(seq 100); do
		url=$(sed -n 's/.*listening on \(http:[^ ]*\).*/\1/p' "$work/$name.out")
		[ -n "$url" ] && return
		sleep 0.1
	done
	fail "$name printed no listening line"
}

# ready URL: waits for URL's readiness.
ready() {
	for _ in $(seq 100); do
		curl -fsS "$1/healthz/ready" >/dev/null 2>&1 && return
		sleep 0.1
	done
	fail "$1 never became ready"
}

# drained PID NAME: waits for NAME to exit after SIGTERM, which must be
# with status 0 and after logging "drained".
drained() {
	for _ in $(seq 200); do
		kill -0 "$1" 2>/dev/null || break
		sleep 0.1
	done
	kill -0 "$1" 2>/dev/null && fail "$2 still runs 20 s after SIGTERM"
	local code=0
	wait "$1" || code=$?
	[ "$code" -eq 0 ] || fail "$2 exited $code after SIGTERM, want 0"
	grep -q 'msg=drained' "$work/$2.log" || fail "$2 did not log drained"
}

go build -o "$work/tcserved" ./cmd/tcserved
go build -o "$work/tcgate" ./cmd/tcgate

start tcserved -addr 127.0.0.1:0 -drain 10s
node=$url node_pid=${pids[0]}
start tcgate -listen 127.0.0.1:0 -nodes "node0=$node" -drain 10s
gate=$url gate_pid=${pids[1]}
ready "$node"
ready "$gate"

job=$(curl -fsS "$gate/v1/jobs" -d '{"workload":"m88ksim","insts":20000}') || fail "job through the gateway failed"
case $job in
*'"state":"done"'*) ;;
*) fail "job through the gateway did not finish: $job" ;;
esac

kill -QUIT "$node_pid" "$gate_pid"
for svc in tcserved tcgate; do
	for _ in $(seq 50); do
		compgen -G "$work/flight/flight-$svc-[0-9]*.json" >/dev/null && break
		sleep 0.1
	done
	compgen -G "$work/flight/flight-$svc-[0-9]*.json" >/dev/null || fail "SIGQUIT wrote no flight-$svc-*.json"
done
curl -fsS "$node/healthz" >/dev/null || fail "tcserved stopped serving after SIGQUIT"
curl -fsS "$gate/healthz" >/dev/null || fail "tcgate stopped serving after SIGQUIT"

kill -TERM "$gate_pid" "$node_pid"
drained "$gate_pid" tcgate
drained "$node_pid" tcserved
pids=()
echo "daemon-smoke: ok"
