// Package keyspace defines the totally ordered search-key domain K, the
// peer-value domain PV, and circular ranges over PV.
//
// The paper (Section 2.1) assumes items expose a search key value from a
// totally ordered domain, and peers carry a value from a totally ordered
// domain PV that increases clockwise around the ring, wrapping at the top.
// A range index uses an order-preserving map M from K to PV; we use the
// identity map, so Key serves both roles.
//
// A peer p owns the circular range (pred(p).val, p.val]: lower bound
// exclusive, upper bound inclusive, wrapping past the maximum Key back to
// zero. Query predicates are intervals [lb,ub], (lb,ub], [lb,ub) or (lb,ub)
// over K and never wrap.
package keyspace

import "fmt"

// Key is a value in the search-key domain K and, via the identity mapping M,
// also a position in the peer-value domain PV. Keys are totally ordered by <.
type Key uint64

// MaxKey is the largest value in the domain; the ring wraps from MaxKey to 0.
const MaxKey = Key(^uint64(0))

// Dist returns the clockwise distance from a to b on the ring, i.e. how far
// one must travel in increasing-key direction (wrapping) to reach b from a.
func Dist(a, b Key) uint64 {
	return uint64(b - a) // uint64 arithmetic wraps exactly like the ring
}

// Between reports whether k lies in the circular open-closed interval (lo, hi].
// When lo == hi the interval denotes the full ring, so Between is always true;
// this matches a single-peer system owning everything.
func Between(k, lo, hi Key) bool {
	if lo == hi {
		return true
	}
	if lo < hi {
		return lo < k && k <= hi
	}
	// wrapped interval
	return k > lo || k <= hi
}

// Range is a circular open-closed interval (Lo, Hi] over the peer-value
// domain: the half-open responsibility range of a peer. Lo == Hi denotes the
// full ring (the first peer's range). The zero Range is not valid; use
// FullRange or NewRange.
type Range struct {
	Lo Key // exclusive
	Hi Key // inclusive
}

// FullRange returns the range covering the entire ring, anchored at hi: the
// range (hi, hi] which by convention contains every key.
func FullRange(hi Key) Range { return Range{Lo: hi, Hi: hi} }

// NewRange returns the circular range (lo, hi].
func NewRange(lo, hi Key) Range { return Range{Lo: lo, Hi: hi} }

// Contains reports whether k is in the circular interval (r.Lo, r.Hi].
func (r Range) Contains(k Key) bool { return Between(k, r.Lo, r.Hi) }

// IsFull reports whether the range covers the whole ring.
func (r Range) IsFull() bool { return r.Lo == r.Hi }

// Size returns the number of keys in the range. A full range reports the
// maximum uint64 value (one short of the true 2^64 cardinality, which does
// not fit); callers only use Size for ordering and splitting decisions.
func (r Range) Size() uint64 {
	if r.IsFull() {
		return ^uint64(0)
	}
	return uint64(r.Hi - r.Lo)
}

// Overlaps reports whether two circular ranges share any key. A range
// contains its own Hi, so two ranges overlap exactly when either contains the
// other's upper bound (full ranges contain everything).
func (r Range) Overlaps(o Range) bool {
	return r.Contains(o.Hi) || o.Contains(r.Hi)
}

// SplitAt divides r at key m into low = (Lo, m] and high = (m, Hi].
// m must lie strictly inside the range (Contains(m) and m != Hi); otherwise
// SplitAt reports ok == false.
func (r Range) SplitAt(m Key) (low, high Range, ok bool) {
	if !r.Contains(m) || m == r.Hi {
		return Range{}, Range{}, false
	}
	return Range{Lo: r.Lo, Hi: m}, Range{Lo: m, Hi: r.Hi}, true
}

// ExtendDown returns the range (newLo, r.Hi], the result of absorbing a
// departing predecessor whose range began at newLo (a merge, Section 2.3).
func (r Range) ExtendDown(newLo Key) Range { return Range{Lo: newLo, Hi: r.Hi} }

// ContiguousEnd returns the last key of the contiguous segment of r that
// starts at cursor, clipped to last (the end of a linear, non-wrapping query
// interval), and whether the query is fully covered by that segment. cursor
// must be contained in r. Scans use it to compute the piece a peer serves;
// the read path uses it to plan speculative segments from cached or
// advertised range metadata.
func (r Range) ContiguousEnd(cursor, last Key) (Key, bool) {
	if r.IsFull() {
		return last, true
	}
	if r.Lo < r.Hi || cursor <= r.Hi {
		// Non-wrapped range, or the cursor sits in the low segment [0, hi]
		// of a wrapped one: ownership is contiguous up to r.Hi.
		if last <= r.Hi {
			return last, true
		}
		return r.Hi, false
	}
	// Wrapped range with the cursor in the high segment (lo, MaxKey]: every
	// key from cursor through MaxKey is owned, and the query is linear, so
	// it ends within this segment.
	return last, true
}

// String renders the range in the paper's (lo, hi] notation.
func (r Range) String() string {
	if r.IsFull() {
		return fmt.Sprintf("(%d, %d] (full ring)", r.Lo, r.Hi)
	}
	return fmt.Sprintf("(%d, %d]", r.Lo, r.Hi)
}

// Interval is a (possibly open or closed at either end) non-wrapping query
// predicate over the search-key domain: one of [Lb,Ub], (Lb,Ub], [Lb,Ub) or
// (Lb,Ub) as in Section 2.1 of the paper.
type Interval struct {
	Lb, Ub         Key
	LbOpen, UbOpen bool
}

// ClosedInterval returns the closed interval [lb, ub].
func ClosedInterval(lb, ub Key) Interval { return Interval{Lb: lb, Ub: ub} }

// Point returns the degenerate interval [k, k], i.e. an equality predicate.
// The paper notes equality queries are a special case of range queries.
func Point(k Key) Interval { return Interval{Lb: k, Ub: k} }

// Valid reports whether the interval denotes a non-empty set of keys.
func (iv Interval) Valid() bool {
	if iv.Lb < iv.Ub {
		return true
	}
	if iv.Lb > iv.Ub {
		return false
	}
	return !iv.LbOpen && !iv.UbOpen
}

// Contains reports whether k satisfies the interval predicate.
func (iv Interval) Contains(k Key) bool {
	if k < iv.Lb || k > iv.Ub {
		return false
	}
	if k == iv.Lb && iv.LbOpen {
		return false
	}
	if k == iv.Ub && iv.UbOpen {
		return false
	}
	return true
}

// String renders the interval in mathematical notation.
func (iv Interval) String() string {
	l, r := "[", "]"
	if iv.LbOpen {
		l = "("
	}
	if iv.UbOpen {
		r = ")"
	}
	return fmt.Sprintf("%s%d, %d%s", l, iv.Lb, iv.Ub, r)
}

// ClipToRange intersects the interval with a peer's circular range, returning
// the sub-interval of iv whose keys fall inside r, as scanRange does when
// computing "r = [lb, ub] ∩ p.range" (Algorithm 4). ok is false when the
// intersection is empty.
//
// Because query intervals never wrap, the intersection with a circular range
// can in principle be two disjoint pieces (when the range wraps through the
// top of the key space and the interval spans the wrap neighbourhood on both
// sides). ClipToRange returns the piece that contains the interval's lower
// continuation point if any, else the other piece; WrapSplit callers in the
// datastore only ever need the piece adjacent to the scan frontier, and the
// scan revisits the remainder on the next peer.
func (iv Interval) ClipToRange(r Range) (Interval, bool) {
	if r.IsFull() {
		return iv, iv.Valid()
	}
	// Non-wrapping range: intersect with the linear segment (r.Lo, r.Hi].
	if r.Lo < r.Hi {
		return clipSegment(iv, r.Lo, true, r.Hi)
	}
	// Wrapping range = (r.Lo, MaxKey] ∪ [0, r.Hi]. The scan proceeds in
	// increasing key order, so prefer the piece adjacent to the interval's
	// first key; the scan revisits any remainder on a later peer.
	lowPiece, lowOK := clipSegment(iv, r.Lo, true, MaxKey)
	if lowOK && lowPiece.Contains(iv.First()) {
		return lowPiece, true
	}
	if hiPiece, ok := clipSegment(iv, 0, false, r.Hi); ok {
		return hiPiece, true
	}
	return lowPiece, lowOK
}

// First returns the smallest key satisfying iv, which must be Valid.
func (iv Interval) First() Key {
	if iv.LbOpen {
		return iv.Lb + 1
	}
	return iv.Lb
}

// Last returns the largest key satisfying iv, which must be Valid.
func (iv Interval) Last() Key {
	if iv.UbOpen {
		return iv.Ub - 1
	}
	return iv.Ub
}

// clipSegment intersects iv with the linear segment whose lower bound is lo
// (exclusive when loOpen) and whose upper bound is hi (always inclusive,
// matching the (lo, hi] convention of peer ranges).
func clipSegment(iv Interval, lo Key, loOpen bool, hi Key) (Interval, bool) {
	out := iv
	if lo > out.Lb {
		out.Lb, out.LbOpen = lo, loOpen
	} else if lo == out.Lb && loOpen {
		out.LbOpen = true
	}
	if hi < out.Ub {
		out.Ub, out.UbOpen = hi, false
	}
	if !out.Valid() {
		return Interval{}, false
	}
	return out, true
}
