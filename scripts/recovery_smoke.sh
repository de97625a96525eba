#!/usr/bin/env bash
# recovery_smoke.sh — the CI durability gauntlet: build pepperd, run peers
# with -data-dir over real TCP, SIGKILL them mid-service and restart each
# from its data directory. A restart must recover the last claimed
# (range, epoch) — the SAME epoch: it is the old incarnation with provable
# identity, not a new claimant — serve its recovered items, re-enter the
# ring, and the run must end with a clean Definition 4 audit.
#
# Two crash cycles are driven:
#
#   1. The bootstrap (sole ring member, all items loaded) is kill -9'd and
#      restarted. Nothing else can revive its range, so the recovered epoch
#      is asserted EQUAL to the pre-crash epoch, and the recovered item
#      count must cover the full load (-min-recovered gates on the probe's
#      recovered/recovered_items fields, so a silent fresh re-bootstrap
#      that reloads items cannot masquerade as recovery). A spill file
#      planted in its stage directory while it is down must be gone after
#      the restart.
#
#   2. A joiner that a split drew into the ring is kill -9'd and restarted
#      promptly — inside the failure-detection window (AckTimeout 20s), the
#      operational window the recovery path exists for — and must resume
#      the same epoch and re-announce through its remembered bootstrap.
#
# The payloads are padded so split hand-offs exceed the streaming chunk
# size, and every process runs with -data-dir, so the chunked transfers are
# staged through storage.Disk spill files rather than RAM.
#
# The whole run is authenticated (-cluster-key). Identities live beside the
# WAL, so a restarted process resumes the SAME ed25519 identity and its
# signed ownership adverts keep verifying at its peers across the crash.
# The restarted bootstrap also runs with -chaos-drop-chunk: its first bulk
# send that reaches the chosen chunk has its connection torn down mid-
# transfer. The run gates on -min-chaos-drops — the fault must have fired,
# not been dodged — and on the probes after it: the joiner serves, every
# item is still counted, and the final audit is clean, so the hand-off the
# fault killed was asked again and completed with no item lost.
#
# Usage: scripts/recovery_smoke.sh [port-base]
set -euo pipefail

# shellcheck source=scripts/lib_ports.sh
. "$(dirname "$0")/lib_ports.sh"

PORT_BASE=${1:-$(pick_port_base 2)}
echo "== port base: $PORT_BASE"
P_BOOT="127.0.0.1:$PORT_BASE"
P_JOIN="127.0.0.1:$((PORT_BASE + 1))"
ITEMS=24
PAYLOAD=65536 # 64 KiB per item: hand-offs span multiple chunks, staged on disk
WAIT=120s
UB=$(( (ITEMS + 1) * 1000 ))
# The ProbeStatus JSON schema this script was written against (see
# internal/ops). A contract drift fails the version check loudly instead of
# this script silently reading zero values out of renamed fields.
SCHEMA=3

WORK=$(mktemp -d)
BIN="$WORK/pepperd"
# The shared cluster secret: every serve and every probe presents it.
KEY="$WORK/cluster.key"
od -An -tx1 -N32 /dev/urandom | tr -d ' \n' >"$KEY"
DATA_BOOT="$WORK/boot-data"
DATA_JOIN="$WORK/join-data"
declare -a PIDS=()
STATUS=1

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  if [ "$STATUS" -ne 0 ]; then
    echo "=== recovery smoke FAILED; process logs follow ==="
    for log in "$WORK"/*.log; do
      echo "--- $log"
      tail -40 "$log" || true
    done
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build pepperd"
go build -o "$BIN" ./cmd/pepperd

# probe_json runs a probe in -json mode, echoes the status object to stderr,
# asserts the schema version, and prints the object on stdout for field
# extraction.
probe_json() {
  local out
  out=$("$BIN" "$@" -json)
  echo "$out" >&2
  if ! echo "$out" | grep -q "\"schema_version\":$SCHEMA[,}]"; then
    echo "probe status schema_version is not $SCHEMA; this script no longer matches the ops contract" >&2
    return 1
  fi
  echo "$out"
}

# json_uint OBJ FIELD — extract an unsigned integer field from a one-line
# JSON object (the probe status has no nested objects, so this is safe).
json_uint() {
  echo "$1" | sed -n "s/.*\"$2\":\([0-9][0-9]*\).*/\1/p" | head -1
}

echo "== start bootstrap at $P_BOOT with -data-dir ($ITEMS items, $PAYLOAD-byte payloads)"
"$BIN" -listen "$P_BOOT" -data-dir "$DATA_BOOT" -items "$ITEMS" -payload "$PAYLOAD" -cluster-key "$KEY" >"$WORK/boot.log" 2>&1 &
PID_BOOT=$!
PIDS+=("$PID_BOOT")
"$BIN" -probe "$P_BOOT" -cluster-key "$KEY" -serving -wait 30s
OUT=$(probe_json -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -wait "$WAIT")
EPOCH_LOADED=$(json_uint "$OUT" epoch)
echo "== bootstrap loaded; epoch ${EPOCH_LOADED:?probe printed no epoch}"

echo "== crash 1: kill -9 the bootstrap"
kill -9 "$PID_BOOT"
wait "$PID_BOOT" 2>/dev/null || true

# A kill -9 during a multi-chunk transfer leaves its spill file behind. Plant
# one: the restarted process must clear the stage directory before it serves.
ORPHAN="$DATA_BOOT/stage/stream-orphan.stage"
mkdir -p "$DATA_BOOT/stage"
echo "spill of a transfer that died with its process" >"$ORPHAN"

echo "== restart the bootstrap from $DATA_BOOT (same command line, plus chunk chaos)"
# -chaos-drop-chunk arms one fault in the restarted process's transport: the
# first bulk send to reach chunk 2 has its connection killed mid-transfer.
# The split hand-off below is that send: it fails as unreachable, and the
# splitter sends the joined message again, which the joiner installs.
"$BIN" -listen "$P_BOOT" -data-dir "$DATA_BOOT" -items "$ITEMS" -payload "$PAYLOAD" -cluster-key "$KEY" -chaos-drop-chunk 2 >"$WORK/boot-restart.log" 2>&1 &
PIDS+=($!)
# -min-recovered gates on the durable restart itself: the process must report
# recovered=true with the full load recovered from WAL+snapshot, not a fresh
# bootstrap that happens to pass the item count by reloading.
OUT=$(probe_json -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -serving -min-recovered "$ITEMS" -wait "$WAIT")
EPOCH_RECOVERED=$(json_uint "$OUT" epoch)
if [ "$EPOCH_RECOVERED" != "$EPOCH_LOADED" ]; then
  echo "recovered epoch $EPOCH_RECOVERED != pre-crash epoch $EPOCH_LOADED (a restart is the same incarnation; the epoch must not move)" >&2
  exit 1
fi
if [ -e "$ORPHAN" ]; then
  echo "orphaned spill file $ORPHAN survived the restart (the stage directory must be cleared)" >&2
  exit 1
fi
echo "== bootstrap recovered at epoch $EPOCH_RECOVERED with all $ITEMS items; orphaned spill cleared"

echo "== start a free peer at $P_JOIN with -data-dir; the split draws it in"
"$BIN" -listen "$P_JOIN" -join "$P_BOOT" -data-dir "$DATA_JOIN" -cluster-key "$KEY" >"$WORK/join.log" 2>&1 &
PID_JOIN=$!
PIDS+=("$PID_JOIN")
OUT=$(probe_json -probe "$P_JOIN" -cluster-key "$KEY" -serving -min-epoch 1 -wait "$WAIT")
EPOCH_JOIN=$(json_uint "$OUT" epoch)
JOIN_ITEMS=$(json_uint "$OUT" items)
echo "== joiner serving ${JOIN_ITEMS:?} items at epoch ${EPOCH_JOIN:?}"
# The split bumped the bootstrap's epoch past its recovered value.
OUT=$(probe_json -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -min-epoch $((EPOCH_RECOVERED + 1)) -wait "$WAIT")
EPOCH_SPLIT=$(json_uint "$OUT" epoch)

echo "== the hand-off survived the injected connection loss by asking again"
# The chaos fault armed at restart tore down the connection under the
# split's chunked state transfer, and the transport must report that it
# fired. The hand-off nonetheless completed: the joiner serves at epoch 1 or
# above, and the bootstrap's count and the final audit still hold every item.
probe_json -probe "$P_BOOT" -cluster-key "$KEY" -min-chaos-drops 1 -wait "$WAIT" >/dev/null

echo "== crash 2: kill -9 the joiner, restart it promptly from $DATA_JOIN"
kill -9 "$PID_JOIN"
wait "$PID_JOIN" 2>/dev/null || true
"$BIN" -listen "$P_JOIN" -join "$P_BOOT" -data-dir "$DATA_JOIN" -cluster-key "$KEY" >"$WORK/join-restart.log" 2>&1 &
PIDS+=($!)
OUT=$(probe_json -probe "$P_JOIN" -cluster-key "$KEY" -serving -min-recovered 1 -wait "$WAIT")
EPOCH_REJOIN=$(json_uint "$OUT" epoch)
if [ "$EPOCH_REJOIN" != "$EPOCH_JOIN" ]; then
  echo "joiner recovered epoch $EPOCH_REJOIN != pre-crash epoch $EPOCH_JOIN" >&2
  exit 1
fi
echo "== joiner recovered at epoch $EPOCH_REJOIN and re-announced"

echo "== final audit: journaled full query + Definition 4 check at the bootstrap"
# The bootstrap's journal witnessed every item's liveness: the load before
# any membership change, the recovery (journaled as a legal resumption of
# the same incarnation), and the split's outbound moves. -min-epoch asserts
# the epoch never regressed across both crash cycles.
probe_json -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -min-epoch "$EPOCH_SPLIT" -audit -wait "$WAIT" >/dev/null

STATUS=0
echo "== recovery smoke PASSED"
