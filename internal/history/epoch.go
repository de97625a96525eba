package history

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/keyspace"
)

// Ownership-epoch audit: checkers over the RangeClaimed events of a journal.
//
// Each range of the key space is served by a sequence of ownership
// incarnations — (peer, epoch) pairs — and every incarnation change journals
// a RangeClaimed event. Two invariants make the epoch a usable fencing token
// (the fix for the dual-claim window where the ring's failure detector
// false-positives on a live peer and its successor revives a range the
// original owner still serves):
//
//  1. Per-key epoch monotonicity: a claim covering a key carries a strictly
//     higher epoch than every live claim it overlaps (CheckClaims). This is
//     what lets every layer order two conflicting ownership assertions.
//  2. Single-incarnation attribution: an item add must be performed by the
//     peer holding the highest-epoch claim covering the key — an add by a
//     peer whose claim was already superseded is exactly the phantom the old
//     TestSoakMixedWorkload flake left behind (CheckAddAttribution).
//
// Claims never affect liveness (BuildLiveness ignores them): the journal
// stays a faithful physical record, and these checkers are a second audit on
// top of the Definition 4 one.

// Claim is one journaled ownership incarnation. Recovered marks a claim
// re-entered from durable storage after a restart (see Log.RecoveredClaim).
type Claim struct {
	Seq       Seq
	Peer      string
	Range     keyspace.Range
	Epoch     uint64
	Recovered bool
}

// ClaimViolation describes one failure of an epoch-audit check.
type ClaimViolation struct {
	Seq    Seq
	Peer   string
	Key    keyspace.Key // CheckAddAttribution only
	Reason string
}

func (v ClaimViolation) String() string {
	return fmt.Sprintf("seq %d peer %s: %s", v.Seq, v.Peer, v.Reason)
}

// CheckClaims verifies per-key epoch monotonicity: every claim must carry a
// strictly higher epoch than the latest claim of every peer (including its
// own) whose range it overlaps. A claim that fails this could not fence its
// predecessor — a request stamped with the older incarnation's epoch would
// be indistinguishable from a current one.
//
// The check compares against each peer's latest claim only: an old claim
// superseded by the same peer's newer one is no longer live, exactly as the
// route caches treat it. A fail-stopped peer's claim is likewise void from
// its PeerFailed event onward: a revival only needs to supersede what the
// dead peer ever ADVERTISED, so tying a final bump that never left the
// crashed peer is a correct execution, not a fencing failure. (A
// false-positive suspicion journals no PeerFailed — the live suspect's
// claim stays binding, which is the case this checker exists for.)
//
// Recovered claims (Log.RecoveredClaim) are resumptions, not new
// incarnations: they are checked for identity with the peer's last journaled
// claim instead of strict supersession.
func CheckClaims(events []Event) []ClaimViolation {
	return checkClaims(slices.Values(events))
}

func checkClaims(events iter.Seq[Event]) []ClaimViolation {
	latest := make(map[string]Claim)
	var out []ClaimViolation
	for ev := range events {
		if ev.Kind == PeerFailed {
			delete(latest, ev.Peer)
			continue
		}
		if ev.Kind != RangeClaimed {
			continue
		}
		c := Claim{Seq: ev.Seq, Peer: ev.Peer, Range: keyspace.Range{Lo: ev.Lo, Hi: ev.Hi}, Epoch: ev.Epoch, Recovered: ev.Recovered}
		if ev.Recovered {
			// A recovery resumes an incarnation rather than minting a new one,
			// so strict supersession does not apply: the legality condition is
			// identity — the recovered claim must be exactly the incarnation
			// this peer last journaled (fresh journals that never saw the
			// original claim accept it as the baseline). Whether a competitor
			// has since claimed a higher epoch is irrelevant here: the epoch
			// order between the two incarnations already exists, and the
			// fencing layers (not this audit) depose the stale one.
			if prev, ok := latest[c.Peer]; ok && (prev.Range != c.Range || prev.Epoch != c.Epoch) {
				out = append(out, ClaimViolation{
					Seq:  c.Seq,
					Peer: c.Peer,
					Reason: fmt.Sprintf("recovered claim of %s at epoch %d does not match the last journaled incarnation %s at epoch %d",
						c.Range, c.Epoch, prev.Range, prev.Epoch),
				})
			}
			latest[c.Peer] = c
			continue
		}
		for _, prev := range latest {
			if !prev.Range.Overlaps(c.Range) {
				continue
			}
			if c.Epoch <= prev.Epoch {
				out = append(out, ClaimViolation{
					Seq:  c.Seq,
					Peer: c.Peer,
					Reason: fmt.Sprintf("claim of %s at epoch %d does not supersede overlapping claim of %s by %s at epoch %d",
						c.Range, c.Epoch, prev.Range, prev.Peer, prev.Epoch),
				})
			}
		}
		latest[c.Peer] = c
	}
	return out
}

// CheckAddAttribution verifies that every ItemAdded was performed under an
// un-superseded ownership incarnation: at the add's sequence point, no OTHER
// peer may hold a claim covering the key with a higher epoch than the
// adder's current claim. An add that fails this landed on a deposed owner —
// the dual-claim phantom. A fail-stopped peer's claim is void from its
// PeerFailed event onward (mirroring BuildLiveness): the successor reviving
// its range must not be flagged against a dead competitor. Journals that
// never record claims (hand-built test layouts) trivially pass: with no
// competing claim there is nothing to fence.
func CheckAddAttribution(events []Event) []ClaimViolation {
	return checkAddAttribution(slices.Values(events))
}

func checkAddAttribution(events iter.Seq[Event]) []ClaimViolation {
	latest := make(map[string]Claim)
	var out []ClaimViolation
	for ev := range events {
		switch ev.Kind {
		case RangeClaimed:
			latest[ev.Peer] = Claim{Seq: ev.Seq, Peer: ev.Peer, Range: keyspace.Range{Lo: ev.Lo, Hi: ev.Hi}, Epoch: ev.Epoch}
		case PeerFailed:
			delete(latest, ev.Peer)
		case ItemAdded:
			var own uint64
			if c, ok := latest[ev.Peer]; ok && c.Range.Contains(ev.Key) {
				own = c.Epoch
			}
			for _, c := range latest {
				if c.Peer == ev.Peer || !c.Range.Contains(ev.Key) {
					continue
				}
				if c.Epoch > own {
					out = append(out, ClaimViolation{
						Seq: ev.Seq, Peer: ev.Peer, Key: ev.Key,
						Reason: fmt.Sprintf("add of key %d under epoch %d, but %s claims it at epoch %d — mutation on a deposed owner",
							ev.Key, own, c.Peer, c.Epoch),
					})
				}
			}
		}
	}
	return out
}

// CheckEpochAudit runs both epoch checkers over one snapshot of the journal.
func (l *Log) CheckEpochAudit() []ClaimViolation {
	events := l.all()
	out := checkClaims(events)
	return append(out, checkAddAttribution(events)...)
}
