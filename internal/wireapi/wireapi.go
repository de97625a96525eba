// Package wireapi is the consolidated dial-side API of the cluster: every
// single-call RPC a NON-PEER endpoint — a smart client (internal/client), an operator
// tool, a test harness — may issue against a running peer, gathered behind
// one documented surface instead of three per-package seams.
//
// The dial-side contract, shared by every call here:
//
//   - Unregistered origin. The caller sends from an arbitrary transport
//     address that is not registered on the ring. The serving peer cannot
//     tell a client from a peer — every request runs the same validated
//     handler — so nothing a client does can corrupt protocol state.
//
//   - Epoch stamping. Fenced calls carry the ownership epoch the caller
//     believes current for the target's range (0 = unfenced). The target
//     validates ownership and epoch itself; client-held routing state is
//     therefore always a HINT, never an authority. A stale hint costs a
//     retry, never a wrong answer.
//
//   - Typed wire errors. Sentinel errors registered with the transport
//     (datastore.ErrNotOwner, datastore.ErrStaleEpoch,
//     transport.ErrStageOverflow) keep their errors.Is identity across TCP,
//     so callers can distinguish "re-resolve the route" (ownership moved),
//     "refresh the epoch" (incarnation superseded) and "transfer too large
//     for RAM staging" (configure disk staging) from transient transport
//     failures.
//
//   - Unbounded responses. Replies that outgrow a transport frame stream
//     back in chunks and are reassembled (or disk-staged) by the transport;
//     callers never see partial payloads.
//
// The functions delegate to the per-package wire bridges, which own the
// unexported message types; this package is the surface tools build against.
// Range reads are not single calls: a dial-side endpoint runs them through the
// scan planner (package scan), which peers share and which issues the segment
// scans and replica reads under this same contract.
package wireapi

import (
	"context"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/router"
	"repro/internal/transport"
)

// OwnerMeta is the ownership fact a mutation reply carries back: the serving
// peer's range, its epoch at serve time, and its successor chain (where its
// replicas live). Prime route caches from it.
type OwnerMeta = datastore.OwnerMeta

// Hop is one greedy routing step: either the answering peer owns the key and
// reports its ownership facts, or it names the farthest peer it knows that
// does not pass the key.
type Hop = router.Hop

// Insert asks the peer at owner to store item under the believed epoch.
// Returns the owner's metadata on success; ErrNotOwner / ErrStaleEpoch
// signal that the hint was stale.
func Insert(ctx context.Context, net transport.Transport, from, owner transport.Addr, item datastore.Item, epoch uint64) (OwnerMeta, error) {
	return datastore.ClientInsert(ctx, net, from, owner, item, epoch)
}

// Delete asks the peer at owner to delete key under the believed epoch. It
// reports whether the key existed, plus the owner's metadata.
func Delete(ctx context.Context, net transport.Transport, from, owner transport.Addr, key keyspace.Key, epoch uint64) (bool, OwnerMeta, error) {
	return datastore.ClientDelete(ctx, net, from, owner, key, epoch)
}

// NextHop asks the peer at to for its next-hop answer for key — the routing
// descent primitive. Ownership is decided by the target's own range, so a
// stale route costs extra hops, never a wrong answer.
func NextHop(ctx context.Context, net transport.Transport, from, to transport.Addr, key keyspace.Key) (Hop, error) {
	return router.ClientNextHop(ctx, net, from, to, key)
}
