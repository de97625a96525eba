package router

import (
	"context"

	"repro/internal/keyspace"
	"repro/internal/ring"
	"repro/internal/transport"
)

// Hop is the exported form of one greedy routing step, for dial-side callers
// outside the cluster (internal/client). It mirrors nextHopResp: when the
// answering peer owns the key it reports the ownership facts a route cache
// needs (range, epoch, successor chain); otherwise it names the farthest
// known peer that does not pass the key.
type Hop struct {
	Owner bool           // the answering peer owns the key
	Range keyspace.Range // when Owner: its responsibility range
	Epoch uint64         // when Owner: the range's ownership epoch
	Chain []ring.Node    // when Owner: its ring successors (replica holders)
	Next  ring.Node      // otherwise: where the descent continues
	Valid bool           // Next holds a usable peer
}

// ClientNextHop asks the peer at to for its next-hop answer for key, sent
// from an arbitrary dial-side address. The answering peer runs the same
// handler a peer-issued descent does — ownership is decided by the target's
// own range, so a stale cache entry costs the client extra hops, never a
// wrong answer.
func ClientNextHop(ctx context.Context, net transport.Transport, from, to transport.Addr, key keyspace.Key) (Hop, error) {
	nh, err := methodNextHop.Call(ctx, net, from, to, key)
	if err != nil {
		return Hop{}, err
	}
	return Hop{Owner: nh.Owner, Range: nh.Range, Epoch: nh.Epoch, Chain: nh.Chain, Next: nh.Next, Valid: nh.Valid}, nil
}
