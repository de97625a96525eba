// Package ops defines the operational probe contract of a running pepperd
// process: the request a thin RPC client (pepperd -probe, the CI smoke
// scripts) sends, and the status object the process answers with.
//
// The json tags of ProbeStatus are the machine-readable schema of
// `pepperd -probe -json`, which scripts parse. That makes them an external
// contract, versioned explicitly: SchemaVersion is bumped on any rename,
// removal or semantic change of an existing field (adding fields is
// compatible and does not bump it), and every consumer asserts the version
// it was written against, so a drifted script fails loudly on the version
// check instead of silently reading zero values out of renamed fields.
//
// The wire encoding between probe and process is the transport codec and does
// not depend on the json tags; core's probe method registers both types with
// it.
package ops

import "repro/internal/keyspace"

// SchemaVersion identifies the ProbeStatus JSON schema. History:
//
//	1 — initial versioned schema (adds schema_version itself, the durable
//	    storage fields backend/wal_records/wal_bytes/snapshots, and the
//	    recovery fields recovered/recovered_items to the PR-6 layout).
//	2 — stream_resumes is replaced by chaos_drops: no transport resumes a
//	    bulk transfer any more, and the chaos fault's firing is what a
//	    smoke run checks instead.
//	3 — free_pool counts the free peers the peer's gossip directory could
//	    lend a split (the one free-peer pool every peer keeps), so
//	    gossip_free, which counted the same directory, is removed.
const SchemaVersion = 3

// ProbeRequest asks a standalone process to report its state. With Query set
// the process also evaluates a range query over [Lo, Hi] from its own peer;
// Journal additionally records that query in the process's correctness
// journal (polls during failure recovery stay unjournaled — this journal
// never learns of remote failures, so a journaled poll observing the
// transient gap would read as a phantom violation). Audit runs the
// Definition 4 checker over every journaled query of the process, and
// LeaseAudit additionally runs the lease-exclusivity checker
// (history.CheckLeases) over the same journal.
//
// LoadItems, when positive, has the probed process insert that many fresh
// items through its normal insert path, placed in the largest key gap of its
// own range so the loaded interval contains nothing else; the process
// answers with the exact interval it used (LoadedLo/LoadedHi), which a
// follow-up exact-count query probe can then audit. The CI cluster smoke
// uses it to prove the cluster still absorbs writes — and still splits —
// after the bootstrap process is killed.
type ProbeRequest struct {
	Query      bool
	Lo, Hi     keyspace.Key
	Journal    bool
	Audit      bool
	LeaseAudit bool
	LoadItems  int
}

// ProbeStatus reports one process's observable state.
type ProbeStatus struct {
	SchemaVersion int          `json:"schema_version"`
	State         string       `json:"state"` // ring lifecycle state
	Val           keyspace.Key `json:"val"`
	HasRange      bool         `json:"has_range"`
	RangeLo       keyspace.Key `json:"range_lo"`
	RangeHi       keyspace.Key `json:"range_hi"`
	Items         int          `json:"items"`
	Replicas      int          `json:"replicas"`
	FreePool      int          `json:"free_pool"`
	RejoinErr     string       `json:"rejoin_err,omitempty"`
	QueryCount    int          `json:"query_count"` // -1 when no query ran
	QueryErr      string       `json:"query_err,omitempty"`
	Violations    int          `json:"violations"` // -1 unless Audit was requested

	// Read-path counters: the owner-lookup cache of this process's router
	// (hits/misses/evictions/invalidations and current entry count) and the
	// number of scan segments served from a replica instead of the primary.
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheEvictions     uint64 `json:"cache_evictions"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheEntries       int    `json:"cache_entries"`
	ReplicaReads       uint64 `json:"replica_reads"`

	// Ownership-epoch state: the current range's epoch (0 when not serving),
	// the number of requests this peer rejected with ErrStaleEpoch, replica
	// reads it refused for a deposed chain, and depositions it underwent.
	Epoch              uint64 `json:"epoch"`
	StaleEpochRejects  uint64 `json:"stale_epoch_rejects"`
	StaleChainRefusals uint64 `json:"stale_chain_refusals"`
	StepDowns          uint64 `json:"step_downs"`

	// Durable storage state: which backend the peer runs on ("memory" or
	// "disk"), its WAL counters, and — when the process restarted from a
	// durable claim — the recovery outcome.
	Backend        string `json:"backend"`
	WALRecords     uint64 `json:"wal_records"`
	WALBytes       int64  `json:"wal_bytes"`
	Snapshots      uint64 `json:"snapshots"`
	Recovered      bool   `json:"recovered"`
	RecoveredItems int    `json:"recovered_items"`

	// Lease state of the peer's current range claim: whether leases are
	// enabled at all (-lease > 0), how long ago the lease was last renewed
	// (milliseconds; -1 when disabled or not serving), whether the local
	// clock already considers it expired (a serving peer whose refreshes are
	// failing — the precursor to a neighbor adopting the range), how many
	// expired-lease adoptions this peer has performed, and the lease-audit
	// verdict (-1 unless LeaseAudit was requested).
	LeaseEnabled    bool   `json:"lease_enabled"`
	LeaseAgeMs      int64  `json:"lease_age_ms"`
	LeaseExpired    bool   `json:"lease_expired"`
	LeaseAdoptions  uint64 `json:"lease_adoptions"`
	LeaseViolations int    `json:"lease_violations"`

	// Wire-trust state: whether this process requires the cluster-secret
	// handshake on every connection, how many connections its transport
	// failed at the handshake (either side), how many received ownership adverts
	// it rejected for a bad signature (replication pushes plus gossiped range
	// adverts), and how many connections its transport's chaos fault killed
	// under a bulk transfer (pepperd -chaos-drop-chunk; at most one).
	AuthEnabled      bool   `json:"auth_enabled"`
	HandshakeRejects uint64 `json:"handshake_rejects"`
	SigRejects       uint64 `json:"sig_rejects"`
	ChaosDrops       uint64 `json:"chaos_drops"`

	// OpenConns is the number of live connections of the process's
	// transport, dialed plus accepted (the probe's own included).
	OpenConns uint64 `json:"open_conns"`

	// Correctness journal: the events the process's history log holds (one
	// per item mutation, claim and lease transition, never truncated) and
	// the bytes they take, about 32 per item mutation.
	JournalEvents int   `json:"journal_events"`
	JournalBytes  int64 `json:"journal_bytes"`

	// Replication push protocol: pushes this peer sent as an origin, by shape
	// (delta, advert-only heartbeat, full set), the replies that asked it for
	// the full set, and the replica records it journaled as a holder. A
	// healthy steady state is deltas tracking the write rate, heartbeats
	// ticking at the refresh period, and full pushes / NeedFull replies only
	// around membership change.
	PushDeltas       uint64 `json:"push_deltas"`
	PushHeartbeats   uint64 `json:"push_heartbeats"`
	PushFulls        uint64 `json:"push_fulls"`
	PushNeedFulls    uint64 `json:"push_need_fulls"`
	ReplicaWALWrites uint64 `json:"replica_wal_writes"`

	// Gossip directory state: distinct members known (this peer included)
	// and anti-entropy rounds initiated; rounds stay zero with
	// -gossip-interval 0. FreePool counts the free peers the directory could
	// lend.
	GossipMembers int    `json:"gossip_members"`
	GossipRounds  uint64 `json:"gossip_rounds"`

	// Outcome of a LoadItems request: the closed key interval the loaded
	// items were placed in (both zero when no load ran).
	LoadedLo keyspace.Key `json:"loaded_lo"`
	LoadedHi keyspace.Key `json:"loaded_hi"`
}
