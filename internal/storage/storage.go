// Package storage is the pluggable per-peer storage engine behind the Data
// Store, the replication manager and the transport's stream staging.
//
// Every durable fact a peer holds — its ownership claim (range, epoch), the
// items it serves, the replicas it keeps for its predecessors, its own
// identity and remembered bootstrap — flows through one Backend as a stream
// of write-ahead Records. Two implementations exist:
//
//   - Memory: the pre-existing in-process behavior. Appends are dropped and
//     Load recovers nothing. Simnet clusters and unit tests keep their
//     speed; a crash loses the peer, exactly as before.
//   - Disk: an append-only, CRC-checked write-ahead log plus periodic
//     snapshots that truncate it. Every record is stamped with the ownership
//     epoch it was performed under, so recovery replays only the live
//     incarnation (see the replay rules on apply). Its factory's stager
//     (DiskFactory.NewStager) spills stream transfers to files instead of
//     RAM, lifting the MaxStreamBytes ceiling on the receive path.
//
// The write-ahead contract: protocol layers append the record for a mutation
// while still holding the lock that serializes the mutation (the Data
// Store's critical section), so the WAL order is the journal order is the
// scan-observed order. Appends may be batched to stable storage on a sync
// interval (the everysec-style durability knob); Sync forces the batch out.
package storage

import (
	"fmt"

	"repro/internal/keyspace"
	"repro/internal/transport"
)

// RecordKind discriminates write-ahead records.
type RecordKind uint8

// Write-ahead record kinds. The zero value is invalid so a zeroed read can
// never masquerade as a record.
const (
	// RecIdentity stamps the peer's dialable address (Payload) and, when
	// non-empty, its remembered bootstrap address (Aux). Recovery refuses a
	// directory whose identity is some other peer's.
	RecIdentity RecordKind = iota + 1
	// RecClaim is an ownership incarnation: the peer claimed Range(Lo,Hi] at
	// Epoch. On replay a claim prunes items outside the claimed range —
	// splits, redistributes and merges move items away exactly by shrinking
	// the range, so no per-item deletes are journaled for hand-offs.
	RecClaim
	// RecRelease drops ownership entirely (step-down after deposition, or a
	// voluntary merge into the successor). Replay clears the range, the
	// epoch and every owned item; held replicas survive.
	RecRelease
	// RecPut upserts one owned item, stamped with the epoch it was accepted
	// under. Replay skips a put whose epoch is not the live incarnation's.
	RecPut
	// RecDelete removes one owned item; same epoch stamp and replay rule as
	// RecPut.
	RecDelete
	// RecReplicaPut upserts one held replica (no epoch gate: replicas are
	// owned by other peers' incarnations and reconciled by range pushes).
	RecReplicaPut
	// RecReplicaDelete removes one held replica.
	RecReplicaDelete
	// RecLease journals a lease renewal for the live incarnation: Key carries
	// the renewal wall-clock time as unix nanoseconds (reusing the fixed
	// layout's key slot — leases have no key of their own), Epoch the
	// incarnation it renews. Replay keeps only a renewal matching the live
	// epoch, so a recovered peer resumes its lease clock from the LAST renewal
	// it durably made — never from "now" — and a claim that lapsed while the
	// process was down comes back already expired, exactly as conservative
	// lease semantics require.
	RecLease
)

func (k RecordKind) String() string {
	switch k {
	case RecIdentity:
		return "identity"
	case RecClaim:
		return "claim"
	case RecRelease:
		return "release"
	case RecPut:
		return "put"
	case RecDelete:
		return "delete"
	case RecReplicaPut:
		return "replica-put"
	case RecReplicaDelete:
		return "replica-delete"
	case RecLease:
		return "lease"
	default:
		return fmt.Sprintf("RecordKind(%d)", uint8(k))
	}
}

// Record is one write-ahead entry. Field use depends on Kind; unused fields
// are zero. Records are value types and never retained by the backend.
type Record struct {
	Kind  RecordKind
	Epoch uint64       // ownership epoch the record was performed under
	Lo    keyspace.Key // RecClaim: claimed range lower bound (exclusive)
	Hi    keyspace.Key // RecClaim: claimed range upper bound (inclusive)
	Key   keyspace.Key // item / replica key
	// Payload is the item payload (RecPut/RecReplicaPut) or the peer's
	// address (RecIdentity).
	Payload string
	// Aux is the bootstrap address (RecIdentity).
	Aux string
}

// State is a peer's recovered durable state: the result of loading the last
// snapshot and replaying the write-ahead log over it.
type State struct {
	// Addr is the identity the directory belongs to; recovery refuses to
	// adopt a directory stamped with another peer's address.
	Addr string
	// Bootstrap is the remembered bootstrap address (empty for the first
	// peer); recovery re-announces to it instead of rejoining empty.
	Bootstrap string
	HasRange  bool
	Range     keyspace.Range
	Epoch     uint64
	// LeaseRenewedAt is the unix-nanosecond time of the last durably journaled
	// lease renewal for the live incarnation; 0 when the claim was never
	// renewed (or leases are disabled). Recovery hands it to the Data Store so
	// the resumed lease clock starts at the last renewal the WAL proves, not
	// at the restart time.
	LeaseRenewedAt int64
	Items          map[keyspace.Key]string // owned items: key -> payload
	Replicas       map[keyspace.Key]string // held replicas: key -> payload
}

// clone returns a deep copy (maps included) safe to hand outside the lock.
func (st State) clone() State {
	out := st
	out.Items = make(map[keyspace.Key]string, len(st.Items))
	for k, v := range st.Items {
		out.Items[k] = v
	}
	out.Replicas = make(map[keyspace.Key]string, len(st.Replicas))
	for k, v := range st.Replicas {
		out.Replicas[k] = v
	}
	return out
}

// apply folds one record into the state. This is the single replay function:
// the Disk backend uses it both to maintain its shadow state on every append
// and to replay the log on recovery, so what recovery rebuilds is by
// construction what the appends described.
//
// Epoch replay rule: an item mutation applies only when its epoch stamp
// equals the live incarnation's epoch. Mutations are appended inside the
// store's critical section, interleaved with the claims that bump the epoch,
// so every well-formed log satisfies the rule; a record that violates it is
// a torn or reordered tail and is dropped rather than resurrected into the
// wrong incarnation.
func (st *State) apply(rec Record) {
	switch rec.Kind {
	case RecIdentity:
		if rec.Payload != "" {
			st.Addr = rec.Payload
		}
		if rec.Aux != "" {
			st.Bootstrap = rec.Aux
		}
	case RecClaim:
		st.HasRange = true
		st.Range = keyspace.Range{Lo: rec.Lo, Hi: rec.Hi}
		st.Epoch = rec.Epoch
		// A new incarnation starts with a fresh lease clock; the grant-time
		// RecLease that claim sites append right after re-stamps it.
		st.LeaseRenewedAt = 0
		for k := range st.Items {
			if !st.Range.Contains(k) {
				delete(st.Items, k)
			}
		}
	case RecRelease:
		st.HasRange = false
		st.Range = keyspace.Range{}
		st.Epoch = 0
		st.LeaseRenewedAt = 0
		st.Items = make(map[keyspace.Key]string)
	case RecPut:
		if st.HasRange && rec.Epoch == st.Epoch {
			st.Items[rec.Key] = rec.Payload
		}
	case RecDelete:
		if st.HasRange && rec.Epoch == st.Epoch {
			delete(st.Items, rec.Key)
		}
	case RecReplicaPut:
		st.Replicas[rec.Key] = rec.Payload
	case RecReplicaDelete:
		delete(st.Replicas, rec.Key)
	case RecLease:
		if st.HasRange && rec.Epoch == st.Epoch {
			st.LeaseRenewedAt = int64(rec.Key)
		}
	}
}

// newState returns an empty state with allocated maps.
func newState() State {
	return State{Items: make(map[keyspace.Key]string), Replicas: make(map[keyspace.Key]string)}
}

// Stats describes a backend for operators (the probe status carries it).
type Stats struct {
	// Name identifies the implementation: "memory" or "disk".
	Name string
	// Records is the number of records appended since open (memory: since
	// construction; appends are counted even though they are dropped).
	Records uint64
	// Snapshots is the number of snapshots written since open.
	Snapshots uint64
	// WALBytes is the current size of the write-ahead log (disk only).
	WALBytes int64
}

// Backend is the pluggable storage engine. Implementations must be safe for
// concurrent use: the Data Store and the replication manager append from
// their own critical sections.
type Backend interface {
	// Append journals one record. The caller appends while holding the lock
	// that serializes the mutation, so implementations must return quickly:
	// Disk buffers the encoded record and batches fsyncs on the configured
	// sync interval (interval zero = fsync every append).
	Append(rec Record) error
	// AppendBatch journals recs in order as one unit: one write and (at sync
	// interval zero) one fsync for the whole batch, however many records it
	// holds. The replication manager journals each push's replica changes
	// through it. An empty batch is a no-op.
	AppendBatch(recs []Record) error
	// Sync forces every appended record to stable storage.
	Sync() error
	// Load returns the recovered state: last snapshot plus WAL replay. A
	// backend with no durable history returns the empty state.
	Load() (State, error)
	// Stats reports the backend's identity and counters.
	Stats() Stats
	// Close flushes and releases the backend. A crash is modeled by NOT
	// calling Close: anything past the last fsync is legitimately lost.
	Close() error
}

// Factory opens one Backend per peer identity. The core layer calls Open
// once per assembled peer; standalone processes reuse the same directory
// across restarts by listening on the same address.
type Factory interface {
	Open(addr transport.Addr) (Backend, error)
}
