package datastore

import "repro/internal/transport"

// The Data Store's methods register their own request and reply types; listed
// here are the types no method names: items, which also travel inside scan
// parameters, and the split hand-off the ring carries as an opaque payload.
func init() {
	transport.RegisterMessage(Item{})
	transport.RegisterMessage([]Item(nil))
	transport.RegisterMessage(joinData{})
	// The stale-epoch and wrong-owner rejections must keep their errors.Is
	// identity across a real network hop (their text is matched on the dial
	// side): a smart client distinguishes "re-resolve the route" from
	// transient failures by exactly these sentinels.
	transport.RegisterWireError(ErrStaleEpoch)
	transport.RegisterWireError(ErrNotOwner)
}
