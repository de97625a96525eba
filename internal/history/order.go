package history

import "repro/internal/keyspace"

// This file provides the formal-model side of the paper's appendix: a
// history is a set of operations with a happened-before partial order
// (Definition 1); truncated histories contain only operations that happened
// before a given one (Definition 2); projections restrict a history to a
// subset of operations (appendix Definition 2 of Section 10.1). In our
// journal, operations carry [Start, End] sequence intervals, and op1
// happened before op2 exactly when op1's End precedes op2's Start — two
// operations with overlapping intervals are the concurrent ones.

// Op is an operation of a history: an identifier with its sequence interval.
// Instantaneous journal events have Start == End.
type Op struct {
	ID    string
	Start Seq
	End   Seq
}

// HappenedBefore reports a ≤ b in the induced partial order (a finished
// before b started). It is irreflexive for concurrent operations and for an
// operation with itself unless it is instantaneous-and-distinct.
func HappenedBefore(a, b Op) bool { return a.End < b.Start }

// Concurrent reports that neither operation happened before the other.
func Concurrent(a, b Op) bool { return !HappenedBefore(a, b) && !HappenedBefore(b, a) }

// History is a finite history H = (O, ≤) with ≤ induced by the sequence
// intervals of its operations.
type History struct {
	Ops []Op
}

// Truncate returns the truncated history H_o (Definition 2): the operations
// that happened before (or are) o, with the same induced order.
func (h History) Truncate(o Op) History {
	var out []Op
	for _, op := range h.Ops {
		if op == o || HappenedBefore(op, o) {
			out = append(out, op)
		}
	}
	return History{Ops: out}
}

// Project returns the projection of the history onto the operations for
// which keep returns true, preserving the induced order.
func (h History) Project(keep func(Op) bool) History {
	var out []Op
	for _, op := range h.Ops {
		if keep(op) {
			out = append(out, op)
		}
	}
	return History{Ops: out}
}

// OpsOf converts the journal's events into formal operations (each event is
// instantaneous), tagging them by kind, peer and key.
func OpsOf(events []Event) []Op {
	out := make([]Op, len(events))
	for i, ev := range events {
		out[i] = Op{
			ID:    eventID(ev),
			Start: ev.Seq,
			End:   ev.Seq,
		}
	}
	return out
}

func eventID(ev Event) string {
	switch ev.Kind {
	case ItemMoved:
		return ev.Kind.String() + ":" + ev.From + "->" + ev.Peer + ":" + keyString(ev.Key)
	case PeerFailed:
		return ev.Kind.String() + ":" + ev.Peer
	default:
		return ev.Kind.String() + ":" + ev.Peer + ":" + keyString(ev.Key)
	}
}

func keyString(k keyspace.Key) string {
	const digits = "0123456789"
	if k == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for k > 0 {
		i--
		buf[i] = digits[k%10]
		k /= 10
	}
	return string(buf[i:])
}
