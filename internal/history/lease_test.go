package history

import (
	"strings"
	"testing"

	"repro/internal/keyspace"
)

// Two peers granted live leases over overlapping ranges, with nothing in the
// journal voiding the first, is exactly the dual-lease window CheckLeases
// exists to catch.
func TestCheckLeasesFlagsOverlappingGrants(t *testing.T) {
	l := NewLog()
	l.LeaseGranted("a", keyspace.Range{Lo: 0, Hi: 100}, 1)
	l.LeaseGranted("b", keyspace.Range{Lo: 50, Hi: 150}, 1)
	vs := l.CheckLeases()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one", vs)
	}
	if !strings.Contains(vs[0].String(), "unexpired lease") {
		t.Fatalf("unexpected violation text: %s", vs[0])
	}
}

// An adoption journals LeaseExpired for the lapsed holder before the
// adopter's overlapping grant: the voided lease makes the grant legal.
func TestCheckLeasesExpiryJustifiesAdoption(t *testing.T) {
	l := NewLog()
	l.LeaseGranted("owner", keyspace.Range{Lo: 0, Hi: 100}, 3)
	l.LeaseExpired("owner", "adopter", keyspace.Range{Lo: 0, Hi: 100}, 3)
	l.LeaseGranted("adopter", keyspace.Range{Lo: 0, Hi: 100}, 4)
	if vs := l.CheckLeases(); len(vs) != 0 {
		t.Fatalf("violations = %v, want none", vs)
	}
}

// An expiry observed at a LOWER epoch than the holder's current lease must
// not void it: the holder re-claimed past the observation, and an adopter
// acting on the stale expiry is flagged.
func TestCheckLeasesStaleExpiryDoesNotVoid(t *testing.T) {
	l := NewLog()
	l.LeaseGranted("owner", keyspace.Range{Lo: 0, Hi: 100}, 5)
	l.LeaseExpired("owner", "adopter", keyspace.Range{Lo: 0, Hi: 100}, 3)
	l.LeaseGranted("adopter", keyspace.Range{Lo: 0, Hi: 100}, 6)
	if vs := l.CheckLeases(); len(vs) != 1 {
		t.Fatalf("violations = %v, want the stale adoption flagged", vs)
	}
}

// A pending handoff from the live holder to the grantee, covering the
// holder's whole leased range, justifies the grantee's overlapping grant (a
// merge: the giver announces, the recipient extends).
func TestCheckLeasesHandoffJustifiesMergeGrant(t *testing.T) {
	l := NewLog()
	l.LeaseGranted("giver", keyspace.Range{Lo: 0, Hi: 100}, 2)
	l.LeaseGranted("succ", keyspace.Range{Lo: 100, Hi: 200}, 1)
	l.LeaseHandoff("giver", "succ", keyspace.Range{Lo: 0, Hi: 100}, 2)
	l.LeaseGranted("succ", keyspace.Range{Lo: 0, Hi: 200}, 2)
	if vs := l.CheckLeases(); len(vs) != 0 {
		t.Fatalf("violations = %v, want none", vs)
	}
}

// A handoff is consumable once: a second overlapping grant with no fresh
// justification is flagged.
func TestCheckLeasesHandoffConsumedOnce(t *testing.T) {
	l := NewLog()
	l.LeaseGranted("giver", keyspace.Range{Lo: 0, Hi: 100}, 2)
	l.LeaseHandoff("giver", "succ", keyspace.Range{Lo: 0, Hi: 100}, 2)
	l.LeaseGranted("succ", keyspace.Range{Lo: 0, Hi: 100}, 2)  // consumes the handoff, voiding the giver
	l.LeaseReleased("succ", keyspace.Range{Lo: 0, Hi: 100}, 2) // and gives the range back up
	l.LeaseGranted("giver", keyspace.Range{Lo: 0, Hi: 100}, 9) // legal: succ's lease is voided
	l.LeaseGranted("succ", keyspace.Range{Lo: 0, Hi: 100}, 10) // overlaps the giver again, no handoff left
	vs := l.CheckLeases()
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly one (the second overlap)", vs)
	}
}

// A same-peer re-grant supersedes that peer's own earlier lease (splits and
// redistributes shrink in place), and releases/failures void a lease for
// later grants by others.
func TestCheckLeasesSupersedeReleaseAndFailure(t *testing.T) {
	l := NewLog()
	l.LeaseGranted("a", keyspace.Range{Lo: 0, Hi: 200}, 1)
	l.LeaseGranted("a", keyspace.Range{Lo: 0, Hi: 100}, 2) // shrink in place: no violation
	l.LeaseGranted("b", keyspace.Range{Lo: 100, Hi: 200}, 1)
	l.LeaseReleased("b", keyspace.Range{Lo: 100, Hi: 200}, 1)
	l.LeaseGranted("c", keyspace.Range{Lo: 100, Hi: 200}, 2) // released: legal
	l.Failed("a")
	l.LeaseGranted("d", keyspace.Range{Lo: 0, Hi: 100}, 3) // holder failed: legal
	if vs := l.CheckLeases(); len(vs) != 0 {
		t.Fatalf("violations = %v, want none", vs)
	}
}

// A lease voided by expiry lets its adopter's overlapping grant stand, and a
// journal with no lease events passes trivially.
func TestCheckLeasesRenewalsAndEmptyJournal(t *testing.T) {
	if vs := NewLog().CheckLeases(); len(vs) != 0 {
		t.Fatalf("empty journal violations = %v", vs)
	}
	l := NewLog()
	l.LeaseGranted("a", keyspace.Range{Lo: 0, Hi: 100}, 1)
	l.LeaseExpired("a", "b", keyspace.Range{Lo: 0, Hi: 100}, 1)
	l.LeaseGranted("b", keyspace.Range{Lo: 0, Hi: 100}, 2)
	if vs := l.CheckLeases(); len(vs) != 0 {
		t.Fatalf("violations = %v, want none", vs)
	}
}
