package history

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/keyspace"
)

// Lease audit: a checker over the lease lifecycle events of a journal.
//
// A lease is the time bound on an ownership incarnation: the claim's grant
// starts it, the owner's replication refresh renews it, and a neighbor that
// observes the renewal lapse past the lease duration may declare it expired
// and adopt the range. The safety property leases must keep — on top of the
// epoch monotonicity CheckClaims proves — is exclusivity in journal order:
//
//	no two peers ever hold unexpired leases covering the same key.
//
// CheckLeases replays the journal and verifies exactly that. A grant that
// overlaps another peer's live lease is legal only when the journal already
// voided that lease (LeaseExpired, LeaseReleased, PeerFailed) or announced
// the transfer (a pending LeaseHandoff from the live holder to the grantee
// covering the overlap). Anything else is a dual-lease window — two peers
// both entitled to serve the same keys at once — which is precisely what the
// lease protocol exists to prevent.

// LeaseViolation describes one failure of the lease audit.
type LeaseViolation struct {
	Seq    Seq
	Peer   string
	Reason string
}

func (v LeaseViolation) String() string {
	return fmt.Sprintf("seq %d peer %s: %s", v.Seq, v.Peer, v.Reason)
}

// lease is one peer's latest granted lease during replay.
type lease struct {
	Range keyspace.Range
	Epoch uint64
	Live  bool // voided by expiry/release/failure when false
}

// handoff is one announced-but-not-yet-granted lease transfer.
type handoff struct {
	Giver     string
	Recipient string
	Range     keyspace.Range
}

// CheckLeases verifies lease exclusivity over the journal: replayed in
// sequence order, no LeaseGranted may overlap another peer's live lease
// unless the journal justified the overlap first (the holder's lease was
// voided, or a pending handoff from the holder to the grantee covers the
// granted range). Renewals are not journaled: they only keep a live lease
// live, which the replay assumes until a voiding event. A same-peer re-grant
// supersedes that peer's previous lease (shrinks at splits/redistributes,
// extensions at merges/revivals). Journals with no lease events trivially
// pass, so unleased configurations stay auditable by the epoch checks alone.
func CheckLeases(events []Event) []LeaseViolation {
	return checkLeases(slices.Values(events))
}

func checkLeases(events iter.Seq[Event]) []LeaseViolation {
	latest := make(map[string]lease)
	var pending []handoff
	var out []LeaseViolation

	// consumeHandoff finds and removes a pending handoff giver->recipient
	// covering the giver's entire live lease (transfers always hand the whole
	// leased region off in one announcement); reports whether one existed.
	consumeHandoff := func(giver, recipient string, leased keyspace.Range) bool {
		for i, h := range pending {
			if h.Giver == giver && h.Recipient == recipient && covers(h.Range, leased) {
				pending = append(pending[:i], pending[i+1:]...)
				return true
			}
		}
		return false
	}
	// dropHandoffsFrom removes pending handoffs announced by giver: a
	// re-grant by the giver (a restored failed merge) withdraws them.
	dropHandoffsFrom := func(giver string) {
		kept := pending[:0]
		for _, h := range pending {
			if h.Giver != giver {
				kept = append(kept, h)
			}
		}
		pending = kept
	}

	for ev := range events {
		switch ev.Kind {
		case PeerFailed:
			if l, ok := latest[ev.Peer]; ok {
				l.Live = false
				latest[ev.Peer] = l
			}
		case LeaseGranted:
			r := keyspace.Range{Lo: ev.Lo, Hi: ev.Hi}
			for peer, l := range latest {
				if peer == ev.Peer || !l.Live || !l.Range.Overlaps(r) {
					continue
				}
				// The overlapped holder's lease must have been transferred:
				// a pending handoff to the grantee covering the holder's
				// leased range voids that lease at this point.
				if consumeHandoff(peer, ev.Peer, l.Range) {
					l.Live = false
					latest[peer] = l
					continue
				}
				out = append(out, LeaseViolation{
					Seq:  ev.Seq,
					Peer: ev.Peer,
					Reason: fmt.Sprintf("lease grant of %s at epoch %d overlaps the unexpired lease of %s held by %s at epoch %d",
						r, ev.Epoch, l.Range, peer, l.Epoch),
				})
			}
			dropHandoffsFrom(ev.Peer)
			latest[ev.Peer] = lease{Range: r, Epoch: ev.Epoch, Live: true}
		case LeaseExpired:
			// ev.Peer is the lapsed holder; ev.From the adopter; ev.Epoch the
			// highest epoch the adopter observed the holder advertise (0 =
			// unknown). Only an incarnation at or below the observed epoch is
			// voided — a holder that re-claimed past it in the meantime keeps
			// its newer lease, and the adopter's overlapping grant is then
			// correctly flagged against it.
			if l, ok := latest[ev.Peer]; ok && (ev.Epoch == 0 || l.Epoch <= ev.Epoch) {
				l.Live = false
				latest[ev.Peer] = l
			}
		case LeaseReleased:
			if l, ok := latest[ev.Peer]; ok && l.Epoch == ev.Epoch {
				l.Live = false
				latest[ev.Peer] = l
			}
		case LeaseHandoff:
			pending = append(pending, handoff{Giver: ev.Peer, Recipient: ev.From, Range: keyspace.Range{Lo: ev.Lo, Hi: ev.Hi}})
		}
	}
	return out
}

// covers reports whether the handed-off range h covers all of r — the
// single-handoff full-coverage rule: every transfer site hands the entire
// leased region off in one announcement. Both are contiguous (Lo, Hi] arcs
// on the ring, so h ⊇ r exactly when h contains both of r's endpoints and is
// at least as long (the length test rules out r wrapping through h's gap).
func covers(h, r keyspace.Range) bool {
	if h.IsFull() {
		return true
	}
	return h.Contains(firstOf(r)) && h.Contains(r.Hi) && r.Size() <= h.Size()
}

// firstOf returns the smallest ring position strictly above r.Lo — the first
// key r contains.
func firstOf(r keyspace.Range) keyspace.Key { return r.Lo + 1 }

// CheckLeases runs the lease audit over this journal's events.
func (l *Log) CheckLeases() []LeaseViolation {
	return checkLeases(l.all())
}
