package replication

import (
	"context"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/transport"
)

// ClientReplicaItems is the caller side of the replica-read fallback: it
// fetches the items in iv visible at the replica holder addr, sent from any
// address — a peer's ring address or a client's dial-side identity. epoch
// stamps the request with the believed primary's ownership epoch (0 =
// unfenced); a holder that has seen a higher epoch asserted over the interval
// refuses with ErrStaleEpoch rather than serve for a deposed chain. Replica
// reads are unjournaled — they may lag the primary by up to one replication
// refresh, and that bounded staleness is part of the contract. Responses are
// unbounded on every transport (oversized answers chunk back), so whole
// segments return from one call.
func ClientReplicaItems(ctx context.Context, net transport.Transport, from, holder transport.Addr, iv keyspace.Interval, epoch uint64) ([]datastore.Item, error) {
	return methodScan.Call(ctx, net, from, holder, replicaScanReq{Iv: iv, Epoch: epoch})
}
