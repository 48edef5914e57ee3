#!/usr/bin/env bash
# Smoke test for the sharded serving cluster: tsg-router fronting
# 2 shards x 2 replicas of tsg-serve --shard over the demo artifacts,
# plus one unsharded reference server. Asserts byte-identical answers
# through the router, a blast with a two-phase rolling reload
# mid-flight that flips the cluster epoch everywhere, a hand-reloaded
# straggler fenced by the anti-entropy scrubber within one interval
# and then repaired by the next fleet reload, a blast with one replica
# SIGKILLed mid-flight during which a reload attempt must abort
# cluster-wide (the survivors stay on one epoch; zero client-visible
# errors and zero STALE_EPOCH replies throughout), and a graceful
# drain. A second router at --max-conns 1 must shed 50 clients, each
# holding an unread 4 KB request, with a clean OVERLOADED reply. Run
# from the repo root after `dune build` (or via `make cluster-smoke`).
#
#   DURATION=10 scripts/cluster_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=_build/install/default/bin
DURATION="${DURATION:-10}"

[ -x "$BIN/tsg-serve" ] && [ -x "$BIN/tsg-router" ] && [ -x "$BIN/tsg-blast" ] ||
  { echo "cluster-smoke: binaries missing — run 'dune build' first" >&2; exit 2; }

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "cluster-smoke: FAIL: $*" >&2; exit 1; }

# one request over bash's /dev/tcp against port $1; prints the full
# reply: the first line, plus the announced block body for "ok N" and
# "begin stats" replies (so multi-line answers can be diffed whole)
ask() {
  local port=$1 req=$2 line n
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf '%s\nquit\n' "$req" >&3
  IFS= read -r line <&3 || true
  printf '%s\n' "$line"
  if [[ "$line" =~ ^ok\ ([0-9]+)$ ]]; then
    n="${BASH_REMATCH[1]}"
    for _ in $(seq 1 "$n"); do
      IFS= read -r line <&3 || break
      printf '%s\n' "$line"
    done
  elif [[ "$line" == "begin stats" ]]; then
    while IFS= read -r line <&3; do
      printf '%s\n' "$line"
      [[ "$line" == "end stats" ]] && break
    done
  fi
  exec 3<&- 3>&-
}

# boot one server ($1: logfile stem, rest: command); sets BOOT_PID and
# BOOT_PORT in the calling shell (no subshell, so the trap sees the pid)
boot() {
  local stem=$1; shift
  "$@" >"$WORK/$stem.out" 2>"$WORK/$stem.err" &
  BOOT_PID=$!
  PIDS+=("$BOOT_PID")
  BOOT_PORT=""
  for _ in $(seq 1 100); do
    BOOT_PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$WORK/$stem.err" | head -n1)
    [ -n "$BOOT_PORT" ] && break
    kill -0 "$BOOT_PID" 2>/dev/null || { cat "$WORK/$stem.err" >&2; fail "$stem died at startup"; }
    sleep 0.1
  done
  [ -n "$BOOT_PORT" ] && [ "$BOOT_PORT" != "0" ] || fail "could not parse $stem's listen port"
}

# the artifact lives in the workdir so the test can publish new
# versions: appending a comment line changes the content epoch while
# every '#'-skipping parser still reads the same patterns
cp examples/data/demo.pat "$WORK/live.pat"
ART=(--patterns "$WORK/live.pat" --taxonomy examples/data/demo.tax
     --db examples/data/demo.db)

echo "== cluster-smoke: booting 2 shards x 2 replicas + unsharded reference"
boot r00 "$BIN/tsg-serve" "${ART[@]}" --shard 0/2 --listen 0 --quiet
P00=$BOOT_PORT; R00_PID=$BOOT_PID
boot r01 "$BIN/tsg-serve" "${ART[@]}" --shard 0/2 --listen 0 --quiet
P01=$BOOT_PORT; R01_PID=$BOOT_PID
boot r10 "$BIN/tsg-serve" "${ART[@]}" --shard 1/2 --listen 0 --quiet
P10=$BOOT_PORT; R10_PID=$BOOT_PID
boot r11 "$BIN/tsg-serve" "${ART[@]}" --shard 1/2 --listen 0 --quiet
P11=$BOOT_PORT; R11_PID=$BOOT_PID
boot ref "$BIN/tsg-serve" "${ART[@]}" --listen 0 --quiet
PREF=$BOOT_PORT; REF_PID=$BOOT_PID
boot router "$BIN/tsg-router" \
  --shard "127.0.0.1:$P00,127.0.0.1:$P01" \
  --shard "127.0.0.1:$P10,127.0.0.1:$P11" \
  --taxonomy examples/data/demo.tax --scrub-interval 1 --listen 0 --quiet
RPORT=$BOOT_PORT; ROUTER_PID=$BOOT_PID
echo "== cluster-smoke: router on $RPORT, reference on $PREF"

HEALTH=$(ask "$RPORT" health)
case "$HEALTH" in
  "ok health shards 2 replicas 4 up 4"*) ;;
  *) fail "bad router health: $HEALTH";;
esac

STATS=$(ask "$RPORT" stats)
grep -q '^begin stats$' <<<"$STATS" || fail "router stats missing header"
grep -q 'cluster\.requests' <<<"$STATS" || fail "router stats missing cluster counters"

echo "== cluster-smoke: waiting for the scrubber to pin the cluster epoch"
E1=""
for _ in $(seq 1 100); do
  E1=$(ask "$RPORT" epoch)
  [ "$E1" != "ok epoch none" ] && break
  sleep 0.2
done
case "$E1" in
  "ok epoch "*.*) E1=${E1#ok epoch };;
  *) fail "router never pinned an epoch: $E1";;
esac
[ "$(ask "$P00" epoch)" = "ok epoch $E1" ] ||
  fail "replica 0/0 epoch disagrees with the router pin $E1"
echo "== cluster-smoke: cluster pinned to epoch $E1"

echo "== cluster-smoke: scatter-gather answers match the unsharded node"
for req in "top-k 5 support" "top-k 5 interest" "by-label c0" "contains c0,c0 0-1"; do
  diff <(ask "$RPORT" "$req") <(ask "$PREF" "$req") >/dev/null ||
    fail "router and reference answers differ for '$req'"
done

echo "== cluster-smoke: a full router sheds 50 clients with a clean OVERLOADED"
boot router_full "$BIN/tsg-router" \
  --shard "127.0.0.1:$P00,127.0.0.1:$P01" \
  --shard "127.0.0.1:$P10,127.0.0.1:$P11" \
  --max-conns 1 --listen 0 --quiet
FULL_PORT=$BOOT_PORT; FULL_PID=$BOOT_PID
# hold the one slot: the health reply proves the connection was accepted
exec 4<>"/dev/tcp/127.0.0.1/$FULL_PORT"
printf 'health\n' >&4
IFS= read -r HELD <&4 || true
case "$HELD" in
  "ok health shards 2"*) ;;
  *) fail "held connection to the full router got: $HELD";;
esac
# each shed client sends a 4 KB request and half-closes before reading;
# a reset (the request left unread at close) loses the reply
python3 - "$FULL_PORT" <<'PY' || fail "the full router lost shed replies"
import socket, sys
port = int(sys.argv[1])
request = b"x" * 4095 + b"\n"
bad = []
for i in range(50):
    s = socket.create_connection(("127.0.0.1", port), timeout=5)
    reply = b""
    try:
        s.sendall(request)
        s.shutdown(socket.SHUT_WR)
        while True:
            chunk = s.recv(1024)
            if not chunk:
                break
            reply += chunk
    except OSError as e:
        reply += ("<%s>" % e).encode()
    finally:
        s.close()
    if reply != b"OVERLOADED\n":
        bad.append(reply)
if bad:
    print("cluster-smoke: %d of 50 shed clients got %r" % (len(bad), bad[0]),
          file=sys.stderr)
    sys.exit(1)
PY
exec 4<&- 4>&-
kill -TERM "$FULL_PID"
wait "$FULL_PID" 2>/dev/null || true
grep -q "50 shed" "$WORK/router_full.err" ||
  fail "full router did not count 50 sheds: $(tail -n1 "$WORK/router_full.err")"

echo "== cluster-smoke: blast A (${DURATION}s) with a two-phase reload mid-flight"
"$BIN/tsg-blast" --port "$RPORT" --router --duration "$DURATION" \
  --clients 4 --rate 100 --min-success 0.999 \
  --request "top-k 5 support" >"$WORK/blast_a.out" 2>&1 &
BLAST_PID=$!
sleep $((DURATION / 3))
printf '# epoch-bump 1\n' >>"$WORK/live.pat"
RELOAD=$(ask "$RPORT" reload)
case "$RELOAD" in
  "ok reload replicas 4 epoch "*) E2=${RELOAD#ok reload replicas 4 epoch };;
  *) fail "two-phase reload replied: $RELOAD";;
esac
[ "$E2" != "$E1" ] || fail "reload did not move the epoch off $E1"
wait "$BLAST_PID" || { cat "$WORK/blast_a.out" >&2; fail "blast A failed"; }
grep -q "error replies:      0" "$WORK/blast_a.out" ||
  { cat "$WORK/blast_a.out" >&2; fail "blast A saw error replies"; }
grep -q "broken connections: 0" "$WORK/blast_a.out" ||
  { cat "$WORK/blast_a.out" >&2; fail "blast A saw broken connections"; }
grep -q "STALE_EPOCH" "$WORK/blast_a.out" &&
  { cat "$WORK/blast_a.out" >&2; fail "a mixed-epoch reply reached a client in blast A"; }

[ "$(ask "$RPORT" epoch)" = "ok epoch $E2" ] ||
  fail "router pin did not flip to $E2"
for port in "$P00" "$P01" "$P10" "$P11"; do
  [ "$(ask "$port" epoch)" = "ok epoch $E2" ] ||
    fail "replica on $port is not serving epoch $E2 after the reload"
done
for req in "top-k 5 support" "by-label c0"; do
  diff <(ask "$RPORT" "$req") <(ask "$PREF" "$req") >/dev/null ||
    fail "answers drifted from the reference after the reload ('$req')"
done
echo "== cluster-smoke: fleet flipped $E1 -> $E2 with zero client-visible errors"

echo "== cluster-smoke: a hand-reloaded straggler is fenced within one scrub interval"
printf '# epoch-bump 2\n' >>"$WORK/live.pat"
DRIFT=$(ask "$P10" reload)
case "$DRIFT" in
  "ok reload "*" epoch "*) E3=${DRIFT##* };;
  *) fail "direct replica reload replied: $DRIFT";;
esac
[ "$E3" != "$E2" ] || fail "hand reload did not drift replica 1/0 off $E2"
FENCED=""
for _ in $(seq 1 100); do
  HEALTH=$(ask "$RPORT" health)
  case "$HEALTH" in
    "ok health shards 2 replicas 4 up 4 degraded 1"*) FENCED=yes; break;;
  esac
  sleep 0.2
done
[ -n "$FENCED" ] || fail "scrubber never fenced the straggler: $HEALTH"
[ "$(ask "$RPORT" epoch)" = "ok epoch $E2" ] ||
  fail "straggler moved the cluster pin off $E2"
for req in "top-k 5 support" "by-label c0"; do
  diff <(ask "$RPORT" "$req") <(ask "$PREF" "$req") >/dev/null ||
    fail "answers drifted from the reference with a fenced straggler ('$req')"
done
# repair: roll the whole fleet forward to the straggler's version
RELOAD=$(ask "$RPORT" reload)
[ "$RELOAD" = "ok reload replicas 4 epoch $E3" ] ||
  fail "repair reload replied: $RELOAD (want epoch $E3)"
HEALED=""
for _ in $(seq 1 100); do
  HEALTH=$(ask "$RPORT" health)
  case "$HEALTH" in
    "ok health shards 2 replicas 4 up 4 degraded 0"*" epoch $E3") HEALED=yes; break;;
  esac
  sleep 0.2
done
[ -n "$HEALED" ] || fail "fleet never converged on $E3: $HEALTH"
for port in "$P00" "$P01" "$P10" "$P11"; do
  [ "$(ask "$port" epoch)" = "ok epoch $E3" ] ||
    fail "replica on $port is not serving epoch $E3 after the repair"
done
echo "== cluster-smoke: straggler fenced ($E3 vs pin $E2), then fleet repaired to $E3"

echo "== cluster-smoke: blast B (${DURATION}s), SIGKILL replica 0/1 mid-flight"
"$BIN/tsg-blast" --port "$RPORT" --router --duration "$DURATION" \
  --clients 4 --rate 100 --min-success 0.999 \
  --request "top-k 5 support" >"$WORK/blast_b.out" 2>&1 &
BLAST_PID=$!
sleep $((DURATION / 3))
kill -9 "$R01_PID"
# a reload with a replica down must abort cluster-wide: replica 0/0
# stages the new artifact, the dead replica fails its prepare, and the
# router releases the staged swap — nobody flips, the fleet stays put
printf '# epoch-bump 3\n' >>"$WORK/live.pat"
RELOAD=$(ask "$RPORT" reload)
case "$RELOAD" in
  "error RELOAD"*) ;;
  *) fail "reload with a dead replica replied: $RELOAD (want error RELOAD)";;
esac
wait "$BLAST_PID" || { cat "$WORK/blast_b.out" >&2; fail "blast B failed"; }
grep -q "error replies:      0" "$WORK/blast_b.out" ||
  { cat "$WORK/blast_b.out" >&2; fail "a protocol-level error reached a client"; }
grep -q "STALE_EPOCH" "$WORK/blast_b.out" &&
  { cat "$WORK/blast_b.out" >&2; fail "a mixed-epoch reply reached a client in blast B"; }

sleep 2
HEALTH=$(ask "$RPORT" health)
case "$HEALTH" in
  "ok health shards 2 replicas 4 up 3"*) ;;
  *) fail "router health after kill: $HEALTH (want up 3)";;
esac
[ "$(ask "$RPORT" epoch)" = "ok epoch $E3" ] ||
  fail "aborted reload moved the router pin off $E3"
for port in "$P00" "$P10" "$P11"; do
  [ "$(ask "$port" epoch)" = "ok epoch $E3" ] ||
    fail "surviving replica on $port drifted off epoch $E3 after the abort"
done
STATS=$(ask "$RPORT" stats)
grep -Eq 'cluster\.reload_aborts[[:space:]]+[1-9]' <<<"$STATS" ||
  fail "router stats did not count the cluster-wide reload abort"
echo "== cluster-smoke: abort held the survivors on one epoch (health: up 3)"

echo "== cluster-smoke: graceful drain"
kill -TERM "$ROUTER_PID"
for _ in $(seq 1 100); do
  kill -0 "$ROUTER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$ROUTER_PID" 2>/dev/null && fail "router did not exit within 10s of SIGTERM"
for pid in "$R00_PID" "$R10_PID" "$R11_PID" "$REF_PID"; do
  kill -TERM "$pid" 2>/dev/null || true
done
for pid in "$R00_PID" "$R10_PID" "$R11_PID" "$REF_PID"; do
  for _ in $(seq 1 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  kill -0 "$pid" 2>/dev/null && fail "replica $pid did not exit within 10s of SIGTERM"
done

echo "== cluster-smoke: PASS"
