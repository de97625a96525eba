package ring

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// newBareRingPeer builds a peer without network wiring, for pure-function
// property tests on list maintenance.
func newBareRingPeer(d int, addr string, val uint64) *Peer {
	return &Peer{
		cfg:  Config{SuccListLen: d}.withDefaults(),
		addr: transport.Addr(addr),
		self: Node{Addr: transport.Addr(addr), Val: keyspace.Key(val)},
	}
}

// Property: normalizeLocked never keeps duplicates, never keeps self, never
// exceeds d JOINED entries, preserves relative order, and reports wrapped
// exactly when self appeared in the input before the cut.
func TestNormalizeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		d := rng.Intn(6) + 2
		p := newBareRingPeer(d, "self", 0)
		n := rng.Intn(12)
		in := make([]Entry, 0, n)
		selfAt := -1
		for i := 0; i < n; i++ {
			var addr string
			if rng.Intn(8) == 0 {
				addr = "self"
				if selfAt < 0 {
					selfAt = i
				}
			} else {
				addr = fmt.Sprintf("p%d", rng.Intn(8))
			}
			in = append(in, Entry{
				Node:  Node{Addr: transport.Addr(addr), Val: keyspace.Key(rng.Intn(100))},
				State: EntryState(rng.Intn(3)),
			})
		}
		inCopy := make([]Entry, len(in))
		copy(inCopy, in)

		p.mu.Lock()
		out, wrapped := p.normalizeLocked(in)
		p.mu.Unlock()

		seen := make(map[transport.Addr]bool)
		joined := 0
		for _, e := range out {
			if e.Node.Addr == "self" {
				t.Fatalf("trial %d: self retained: %v", trial, out)
			}
			if seen[e.Node.Addr] {
				t.Fatalf("trial %d: duplicate %s: %v", trial, e.Node.Addr, out)
			}
			seen[e.Node.Addr] = true
			if e.State == EntryJoined {
				joined++
			}
		}
		if joined > d {
			t.Fatalf("trial %d: %d JOINED entries exceed d=%d: %v", trial, joined, d, out)
		}
		// Order preservation: out must be a subsequence of the input.
		j := 0
		for _, e := range inCopy {
			if j < len(out) && out[j].Node.Addr == e.Node.Addr && out[j].State == e.State {
				j++
			}
		}
		if j != len(out) {
			t.Fatalf("trial %d: output is not an input subsequence\nin:  %v\nout: %v", trial, inCopy, out)
		}
		// wrapped implies self appeared in the input; the converse only
		// holds when self was not cut away by the JOINED cap first.
		if wrapped && selfAt < 0 {
			t.Fatalf("trial %d: wrapped without self in input", trial)
		}
	}
}

// Property: betweenOnRing matches linear interval logic when no wrap occurs
// and is consistent under rotation of all three points.
func TestBetweenOnRingProperties(t *testing.T) {
	f := func(v, lo, hi, rot keyspace.Key) bool {
		want := betweenOnRing(v, lo, hi)
		got := betweenOnRing(v+rot, lo+rot, hi+rot) // rotation invariance
		return want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	// Linear agreement when lo < hi.
	g := func(vRaw, loRaw, hiRaw uint16) bool {
		v, lo, hi := keyspace.Key(vRaw), keyspace.Key(loRaw), keyspace.Key(hiRaw)
		if lo >= hi {
			return true
		}
		want := lo < v && v < hi
		return betweenOnRing(v, lo, hi) == want
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: appendWrapIfEmpty adds self exactly when the list has no JOINED
// entry, and never otherwise.
func TestAppendWrapIfEmptyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(6)
		in := make([]Entry, 0, n)
		hasJoined := false
		for i := 0; i < n; i++ {
			st := EntryState(rng.Intn(3))
			if st == EntryJoined {
				hasJoined = true
			}
			in = append(in, Entry{Node: Node{Addr: transport.Addr(fmt.Sprintf("p%d", i))}, State: st})
		}
		self := Node{Addr: "me"}
		out := appendWrapIfEmpty(in, self)
		if hasJoined {
			if len(out) != n {
				t.Fatalf("trial %d: wrap appended despite JOINED entry", trial)
			}
		} else {
			if len(out) != n+1 || out[n].Node.Addr != "me" {
				t.Fatalf("trial %d: wrap not appended to JOINED-free list", trial)
			}
		}
	}
}
