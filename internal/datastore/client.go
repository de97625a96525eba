package datastore

import (
	"context"

	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/transport"
)

// Dial-side entry points: the Data Store's fenced item operations, the only
// senders of their RPCs. They take the sender address explicitly, so a ring
// member (from its own address) and a bare transport endpoint that is NOT a
// peer — a smart client outside the cluster (internal/client) — reach the
// same validated, epoch-fenced handlers through the same call; the routed
// attempts of package scan are built on them. The serving side cannot tell
// the difference — ownership is validated and epochs are checked at the
// target either way, which is exactly what makes caller-held routing state
// safe to trust as a hint.

// OwnerMeta is the ownership fact a mutation reply carries back to its
// sender: the serving peer's responsibility range, its ownership epoch at
// serve time, and its ring successors (where its replicas live). Clients
// prime their route caches from it, so the first write to a region makes the
// next operation there a single validated hop.
type OwnerMeta struct {
	Range keyspace.Range
	Epoch uint64
	Chain []ring.Node
}

// ClientInsert asks the peer at owner to store item, stamped with the
// ownership epoch the caller believes current (0 = unfenced). It returns the
// owner's metadata on success; ErrNotOwner and ErrStaleEpoch keep their
// errors.Is identity across the TCP transport, so the caller can distinguish
// "re-resolve the route" from transient failures.
func ClientInsert(ctx context.Context, net transport.Transport, from, owner transport.Addr, item Item, epoch uint64) (OwnerMeta, error) {
	resp, err := methodInsert.Call(ctx, net, from, owner, insertReq{Item: item, Epoch: epoch})
	return resp.OwnerMeta, err
}

// ClientDelete asks the peer at owner to delete key, stamped with the
// believed ownership epoch. It reports whether the key existed, plus the
// owner's metadata.
func ClientDelete(ctx context.Context, net transport.Transport, from, owner transport.Addr, key keyspace.Key, epoch uint64) (bool, OwnerMeta, error) {
	resp, err := methodDelete.Call(ctx, net, from, owner, deleteReq{Key: key, Epoch: epoch})
	return resp.Found, resp.OwnerMeta, err
}

// ClientScanSegmentAsync asks the peer at owner for its piece of iv starting
// at cursor, without blocking — the scan planner (package scan) keeps several
// of these in flight, from a peer's ring address or a client's dial-side
// identity alike. epoch stamps the request with the believed ownership epoch
// (0 = unfenced); the target validates cursor ownership under its range read
// lock. Responses are unbounded on every transport (they chunk when
// oversized), so a large piece streams back without caller involvement.
func ClientScanSegmentAsync(ctx context.Context, net transport.Transport, from, owner transport.Addr, iv keyspace.Interval, cursor keyspace.Key, epoch uint64) *SegmentPending {
	return methodScanSegment.CallAsync(ctx, net, from, owner, segmentReq{Iv: iv, Cursor: cursor, Epoch: epoch})
}
