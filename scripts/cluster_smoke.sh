#!/usr/bin/env bash
# cluster_smoke.sh — the CI cluster gauntlet: build pepperd, run a real
# 3-process TCP cluster through a churn cycle (kill one serving peer, let
# replication revive its range, rejoin a fresh process that a split draws
# back into the ring) and fail unless the final Definition 4 audit at the
# bootstrap is clean. Then the decentralized-membership phase: SIGKILL the
# BOOTSTRAP itself, prove the full load survives (the range-claim lease
# expires and the successor adopts), and prove the cluster can still grow —
# a fresh free peer announces to an ordinary member, the gossiped directory
# spreads it, and a post-kill overflow split draws it in. The run ends with
# a clean Definition 4 audit AND a clean lease-exclusivity audit at a
# surviving peer.
#
# The item payloads are padded (-payload) so the split hand-offs and replica
# pushes exceed the streaming chunk size: the chunked state transfer has to
# survive the real wire, not just simnet.
#
# The whole cluster runs authenticated (-cluster-key): every process and
# every probe holds the shared secret, so the entire gauntlet exercises the
# handshake on each connection. A trust-boundary phase then starts one peer
# with the WRONG key and requires that it is refused at the handshake, that a
# good peer counts the reject, and that the gossiped membership never grows
# past the legitimate processes.
#
# Usage: scripts/cluster_smoke.sh [port-base]
#
# Without an argument the port base is derived from this shell's PID and
# probed for availability (scripts/lib_ports.sh), so concurrent runs on one
# machine don't collide.
set -euo pipefail

# shellcheck source=scripts/lib_ports.sh
. "$(dirname "$0")/lib_ports.sh"

PORT_BASE=${1:-$(pick_port_base 6)}
echo "== port base: $PORT_BASE"
P_BOOT="127.0.0.1:$PORT_BASE"
P_A="127.0.0.1:$((PORT_BASE + 1))"
P_B="127.0.0.1:$((PORT_BASE + 2))"
P_REJOIN="127.0.0.1:$((PORT_BASE + 3))"
P_NEW="127.0.0.1:$((PORT_BASE + 4))"
P_EVIL="127.0.0.1:$((PORT_BASE + 5))"
ITEMS=40
# Range-claim lease: 10× the 500 ms replica-refresh period, and well under
# the ring's 20 s ack timeout — the killed bootstrap's range below is
# adopted via lease expiry before the failure detector would get there.
LEASE=5s
GOSSIP=300ms
PAYLOAD=65536 # 64 KiB per item: hand-offs span multiple 256 KiB chunks
WAIT=120s
UB=$(( (ITEMS + 1) * 1000 ))
# The ProbeStatus JSON schema this script was written against (see
# internal/ops). A contract drift fails the version check loudly instead of
# this script silently reading zero values out of renamed fields.
SCHEMA=3

WORK=$(mktemp -d)
BIN="$WORK/pepperd"
# The shared cluster secret: every serve AND every probe below presents it,
# so each connection in the run crosses the authentication handshake.
KEY="$WORK/cluster.key"
od -An -tx1 -N32 /dev/urandom | tr -d ' \n' >"$KEY"
declare -a PIDS=()
STATUS=1

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  if [ "$STATUS" -ne 0 ]; then
    echo "=== cluster smoke FAILED; process logs follow ==="
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

# probe_epoch runs a probe in -json mode, echoes the status object, asserts
# the schema version, and extracts the target's current ownership epoch. The
# epoch is the range-ownership fencing token: it must only ever move forward
# at a given peer, and every membership change (split, merge, revival) bumps
# it.
probe_epoch() {
  local out
  out=$("$BIN" "$@" -json)
  echo "$out" >&2
  if ! echo "$out" | grep -q "\"schema_version\":$SCHEMA[,}]"; then
    echo "probe status schema_version is not $SCHEMA; this script no longer matches the ops contract" >&2
    return 1
  fi
  echo "$out" | sed -n 's/.*"epoch":\([0-9][0-9]*\).*/\1/p' | head -1
}

echo "== start bootstrap at $P_BOOT ($ITEMS items, $PAYLOAD-byte payloads, lease $LEASE, gossip $GOSSIP)"
"$BIN" -listen "$P_BOOT" -items "$ITEMS" -payload "$PAYLOAD" -lease "$LEASE" -gossip-interval "$GOSSIP" -cluster-key "$KEY" >"$WORK/boot.log" 2>&1 &
PID_BOOT=$!
PIDS+=("$PID_BOOT")
# Wait for the FULL load before any membership change: every insert must be
# journaled at the bootstrap while it still owns the whole key space, or the
# final Definition 4 audit is unsound (journals are per-process — an insert
# routed to another peer mid-split journals there, and the bootstrap's
# checker would flag the item as never-live; see ROADMAP item 11).
"$BIN" -probe "$P_BOOT" -cluster-key "$KEY" -serving -wait 30s
EPOCH_LOADED=$(probe_epoch -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -wait "$WAIT")
echo "== bootstrap epoch after load: ${EPOCH_LOADED:?probe printed no epoch}"

echo "== start two free peers ($P_A, $P_B); splits draw them into the ring"
"$BIN" -listen "$P_A" -join "$P_BOOT" -lease "$LEASE" -gossip-interval "$GOSSIP" -cluster-key "$KEY" >"$WORK/peer-a.log" 2>&1 &
PID_A=$!
PIDS+=("$PID_A")
"$BIN" -listen "$P_B" -join "$P_BOOT" -lease "$LEASE" -gossip-interval "$GOSSIP" -cluster-key "$KEY" >"$WORK/peer-b.log" 2>&1 &
PID_B=$!
PIDS+=("$PID_B")

echo "== wait until both joiners serve a range and the full load is queryable"
"$BIN" -probe "$P_A" -cluster-key "$KEY" -serving -min-epoch 1 -wait "$WAIT"
"$BIN" -probe "$P_B" -cluster-key "$KEY" -serving -min-epoch 1 -wait "$WAIT"
# The splits that drew the joiners in are epoch bumps at the bootstrap:
# its epoch must have moved strictly past the post-load value.
EPOCH_SPLIT=$(probe_epoch -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -min-epoch $((EPOCH_LOADED + 1)) -wait "$WAIT")
echo "== bootstrap epoch after splits: ${EPOCH_SPLIT:?probe printed no epoch}"

echo "== churn: fail-stop one serving peer ($P_B)"
kill -9 "$PID_B"

echo "== query-heavy phase: range queries during churn (cold then cache-warmed)"
# Each probe runs a full range query at the bootstrap while the failure is
# being recovered: the first queries descend cold, later ones enter at the
# cached owners, and stale entries for the killed peer must be detected at
# the target and evicted — never returned as wrong results.
for i in $(seq 1 6); do
  "$BIN" -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -wait "$WAIT"
done

echo "== recovery: replication must revive the lost range"
"$BIN" -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -wait "$WAIT"

echo "== rejoin: a fresh process re-enters and the pending split draws it in"
"$BIN" -listen "$P_REJOIN" -join "$P_BOOT" -lease "$LEASE" -gossip-interval "$GOSSIP" -cluster-key "$KEY" >"$WORK/peer-rejoin.log" 2>&1 &
PIDS+=($!)
"$BIN" -probe "$P_REJOIN" -cluster-key "$KEY" -serving -min-epoch 1 -wait "$WAIT"

echo "== final audit: journaled full query + Definition 4 check at the bootstrap"
# -min-cache-hits gates the read path: the query-heavy phase above must have
# produced owner-lookup cache hits at the bootstrap (the counter travels in
# the probe status). -min-epoch gates the ownership-epoch fence: across the
# whole kill/recover/rejoin cycle the bootstrap's epoch must never have
# regressed below its post-split value (epochs are monotonic per range).
"$BIN" -probe "$P_BOOT" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -min-cache-hits 1 -min-epoch "$EPOCH_SPLIT" -audit -wait "$WAIT"

echo "== decentralized membership: a fresh free peer announces to an ORDINARY member ($P_REJOIN)"
# The announce target is deliberately not the bootstrap: free-peer
# announcements work against any serving member, and the gossiped directory
# is what spreads the entry to whoever needs it for a split.
"$BIN" -listen "$P_NEW" -join "$P_REJOIN" -lease "$LEASE" -gossip-interval "$GOSSIP" -cluster-key "$KEY" >"$WORK/peer-new.log" 2>&1 &
PIDS+=($!)
# Wait for the directory to spread: $P_A (which never saw the announce) must
# learn of all 5 member processes via gossip. The member count is a monotone
# union, so this gate cannot be satisfied and then un-satisfied by a racing
# split consuming the free entry.
"$BIN" -probe "$P_A" -cluster-key "$KEY" -min-gossip-members 5 -wait "$WAIT"

echo "== trust boundary: a peer holding the WRONG cluster key must be refused"
EVIL_KEY="$WORK/evil.key"
od -An -tx1 -N32 /dev/urandom | tr -d ' \n' >"$EVIL_KEY"
# The impostor's announce to $P_A dies at the authentication handshake: the
# process must exit nonzero without ever entering the ring, and its own log
# must show the typed authentication failure (not a timeout or a crash).
if "$BIN" -listen "$P_EVIL" -join "$P_A" -lease "$LEASE" -gossip-interval "$GOSSIP" -cluster-key "$EVIL_KEY" >"$WORK/peer-evil.log" 2>&1; then
  echo "a peer holding the wrong cluster key joined the cluster" >&2
  exit 1
fi
if ! grep -qi "not authenticated" "$WORK/peer-evil.log"; then
  echo "the wrong-key peer failed for a reason other than authentication:" >&2
  tail -5 "$WORK/peer-evil.log" >&2
  exit 1
fi
# The refused handshake is visible in $P_A's wire counters, and the gossiped
# membership must NOT have grown past the 5 legitimate processes.
"$BIN" -probe "$P_A" -cluster-key "$KEY" -min-handshake-rejects 1 -wait "$WAIT"
MEMBERS_OUT=$("$BIN" -probe "$P_A" -cluster-key "$KEY" -json)
MEMBERS=$(echo "$MEMBERS_OUT" | sed -n 's/.*"gossip_members":\([0-9][0-9]*\).*/\1/p')
if [ "${MEMBERS:?probe printed no gossip_members}" -ne 5 ]; then
  echo "gossip_members = $MEMBERS after the wrong-key peer; the impostor entered the directory" >&2
  exit 1
fi

echo "== SIGKILL the bootstrap ($P_BOOT): its lease must expire and its successor adopt the range"
kill -9 "$PID_BOOT"

echo "== the full load survives without the bootstrap"
"$BIN" -probe "$P_A" -cluster-key "$KEY" -expect "$ITEMS" -probe-ub "$UB" -wait "$WAIT"

echo "== post-kill growth: probe-load overflows $P_A; the split must draw $P_NEW in"
# With the bootstrap dead there is no central pool to borrow from: the
# overflowed peer resolves the free peer from the gossiped directory (or the
# revival adopter already did — either way a split completes without the
# bootstrap). The load goes into an item-free gap of $P_A's own range and
# the JSON reply reports the exact loaded interval for the final audit.
LOAD_OUT=$("$BIN" -probe "$P_A" -cluster-key "$KEY" -serving -probe-load 12 -json -wait "$WAIT")
echo "$LOAD_OUT"
if ! echo "$LOAD_OUT" | grep -q "\"schema_version\":$SCHEMA[,}]"; then
  echo "probe status schema_version is not $SCHEMA; this script no longer matches the ops contract" >&2
  exit 1
fi
LOAD_LO=$(echo "$LOAD_OUT" | sed -n 's/.*"loaded_lo":\([0-9][0-9]*\).*/\1/p')
LOAD_HI=$(echo "$LOAD_OUT" | sed -n 's/.*"loaded_hi":\([0-9][0-9]*\).*/\1/p')
echo "== loaded interval: [${LOAD_LO:?probe printed no loaded_lo}, ${LOAD_HI:?probe printed no loaded_hi}]"
"$BIN" -probe "$P_NEW" -cluster-key "$KEY" -serving -min-epoch 1 -wait "$WAIT"

echo "== final: exact-count query over the loaded interval + Definition 4 + lease audit at $P_A"
# -expect over [loaded_lo, loaded_hi] must return exactly the probe-loaded
# items (the gap was item-free cluster-wide at load time); -audit journals
# the query and requires a clean Definition 4 check; -lease-audit requires
# that no two unexpired leases ever overlapped a key in $P_A's journal —
# including across the bootstrap kill and the adoption it forced.
"$BIN" -probe "$P_A" -cluster-key "$KEY" -expect 12 -probe-lb "$LOAD_LO" -probe-ub "$LOAD_HI" -audit -lease-audit -wait "$WAIT"

STATUS=0
echo "== cluster smoke PASSED"
