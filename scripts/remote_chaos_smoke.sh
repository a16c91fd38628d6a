#!/usr/bin/env bash
# remote_chaos_smoke.sh STORE_PARENT_DIR
#
# The multi-host build transport at the process level: two
# `tracegen -serve` daemons come up on loopback ephemeral ports, a
# `tracegen -hosts` build dispatches ranges to them and
# streams sealed parts back, daemon B is SIGKILLed while the first
# build is in flight, the build halts once (-halt-after) and a second
# invocation resumes against the surviving daemon — re-fetching only
# what its store is missing — and a second suite key builds with B
# still dead, proving steady-state one-dead-host operation.
#
# The caller (make remote-chaos-smoke) then runs the golden +
# equivalence suites warm through $STORE_PARENT_DIR/store, so the
# pinned experiment outputs certify that parts built remotely, killed
# mid-stream and resumed sealed the exact clean bytes.
set -euo pipefail

DIR=${1:?usage: remote_chaos_smoke.sh STORE_PARENT_DIR}
TRACEGEN=${TRACEGEN:-/tmp/repro-tracegen}
STORE="$DIR/store"

rm -rf "$DIR"
mkdir -p "$DIR"

PID_A= PID_B=
cleanup() {
    [ -n "$PID_A" ] && kill "$PID_A" 2>/dev/null || true
    [ -n "$PID_B" ] && kill "$PID_B" 2>/dev/null || true
}
trap cleanup EXIT

# -serve-delay stretches daemon-side builds so the SIGKILL below lands
# while work is genuinely in flight; -chunk keeps transfers many
# frames long for the same reason.
"$TRACEGEN" -snapshot "$DIR/worker-a" -serve 127.0.0.1:0 -addr-file "$DIR/a.addr" -serve-delay 15ms &
PID_A=$!
"$TRACEGEN" -snapshot "$DIR/worker-b" -serve 127.0.0.1:0 -addr-file "$DIR/b.addr" -serve-delay 15ms &
PID_B=$!

for i in $(seq 1 100); do
    [ -s "$DIR/a.addr" ] && [ -s "$DIR/b.addr" ] && break
    [ "$i" -eq 100 ] && { echo "daemons never published their addresses" >&2; exit 1; }
    sleep 0.1
done
ADDR_A=$(cat "$DIR/a.addr")
ADDR_B=$(cat "$DIR/b.addr")
echo "remote-chaos-smoke: daemons at $ADDR_A (pid $PID_A) and $ADDR_B (pid $PID_B)"

# Build 1, first half: both daemons serving; B is SIGKILLed while the
# build runs (the delayed builds above make the window wide). The
# coordinator halts after one sealed part either way — the resume path
# is part of what the smoke proves.
( sleep 0.15; echo "remote-chaos-smoke: SIGKILL daemon B ($PID_B)"; kill -9 "$PID_B" 2>/dev/null || true ) &
KILLER=$!
"$TRACEGEN" -snapshot "$STORE" -users 20 -weeks 2 -seed 1 \
    -hosts "$ADDR_A,$ADDR_B" -workers 2 -ranges 4 -retries 8 -chunk 2048 -halt-after 1 \
    | tee "$DIR/run1.out"
wait "$KILLER" 2>/dev/null || true
PID_B=

# Build 1, second half: resume with B dead for good. The pool
# quarantines the dead host and the surviving daemon carries the
# remaining ranges; parts already streamed are found sealed on disk.
"$TRACEGEN" -snapshot "$STORE" -users 20 -weeks 2 -seed 1 \
    -hosts "$ADDR_A,$ADDR_B" -workers 2 -ranges 4 -retries 8 -chunk 2048 \
    | tee "$DIR/run2.out"

# Build 2: the other suite key, one dead host steady state.
"$TRACEGEN" -snapshot "$STORE" -users 40 -weeks 2 -seed 7 \
    -hosts "$ADDR_A,$ADDR_B" -workers 2 -ranges 4 -retries 8 -chunk 2048 \
    | tee "$DIR/run3.out"

# Every coordinator run must have printed its one-line transport
# summary, and the completed runs must have streamed real bytes.
grep -q '"bytes_streamed"' "$DIR/run1.out"
grep -q '"bytes_streamed"' "$DIR/run2.out"
grep -q '"bytes_streamed"' "$DIR/run3.out"
if ! grep -q '"bytes_streamed":[1-9]' "$DIR/run3.out"; then
    echo "remote-chaos-smoke: one-dead-host build streamed no bytes" >&2
    exit 1
fi
echo "remote-chaos-smoke: builds converged; store at $STORE"
