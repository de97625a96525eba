package scan

import (
	"context"
	"errors"

	"repro/internal/datastore"
	"repro/internal/keyspace"
	"repro/internal/transport"
)

// The routed mutation attempt: insertItem and deleteItem over the Routes seam
// the scan uses. Finding the responsible peer (Section 4.2 step (a)) yields a
// hint here exactly as it does for a scan's entry segment: the mutation goes
// straight to the hinted owner, stamped with the hint's ownership epoch, and
// ownership is decided at the target under its range read lock. A warm
// mutation is one round trip; a wrong hint costs one typed rejection and a
// re-resolve, never a write accepted by a peer with no right to it. Mutations
// never touch replicas.

// InsertAttempt performs one routed insert of item. staleRoute reports a
// typed rejection (ErrNotOwner, ErrStaleEpoch) that proved the route wrong.
func (p Planner) InsertAttempt(ctx context.Context, item datastore.Item) (staleRoute bool, err error) {
	return p.mutate(ctx, item.Key, func(owner transport.Addr, epoch uint64) (datastore.OwnerMeta, error) {
		return datastore.ClientInsert(ctx, p.Net, p.From, owner, item, epoch)
	})
}

// DeleteAttempt performs one routed delete of key, reporting whether the key
// existed at its owner. Same routing contract as InsertAttempt.
func (p Planner) DeleteAttempt(ctx context.Context, key keyspace.Key) (found, staleRoute bool, err error) {
	staleRoute, err = p.mutate(ctx, key, func(owner transport.Addr, epoch uint64) (meta datastore.OwnerMeta, err error) {
		found, meta, err = datastore.ClientDelete(ctx, p.Net, p.From, owner, key, epoch)
		return meta, err
	})
	return found, staleRoute, err
}

// mutate resolves key's route, applies call at the hinted owner and folds the
// outcome back into the routes: a success teaches them the reply's range,
// epoch and chain; a typed rejection or the fail-stop signature drops the
// owner's route, so the caller's retry re-resolves; any other error (a busy
// range lock, a refused write-ahead append) comes from a live owner whose
// route may well be right, so it is kept and only the attempt fails.
func (p Planner) mutate(ctx context.Context, key keyspace.Key, call func(owner transport.Addr, epoch uint64) (datastore.OwnerMeta, error)) (staleRoute bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	// An unranged route carries no epoch: the call goes unfenced (epoch 0).
	ent, _, err := p.Routes.Resolve(ctx, key)
	if err != nil {
		return false, err
	}
	meta, err := call(ent.Addr, ent.Epoch)
	switch {
	case err == nil:
		p.Routes.Learn(meta.Range, ent.Addr, meta.Epoch, meta.Chain)
	case errors.Is(err, datastore.ErrNotOwner), errors.Is(err, datastore.ErrStaleEpoch):
		p.Routes.InvalidateOwner(ent.Addr)
		staleRoute = true
	case errors.Is(err, transport.ErrUnreachable):
		p.Routes.InvalidateOwner(ent.Addr)
	}
	return staleRoute, err
}
