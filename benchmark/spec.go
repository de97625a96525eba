package main

import (
	"fmt"
	"time"
)

// workloadSpec is one row of the workload table. Every field is fixed here;
// a run varies only the seed.
type workloadSpec struct {
	name    string
	peers   int  // serving peers after set-up
	free    int  // free peers left after set-up
	wal     bool // storage.DiskFactory at SyncInterval 0, else storage.Memory
	secured bool // ClusterKey + signed adverts + 3 s leases + 500 ms gossip
	// Operation mix, in percent.
	query, insert, delete int
	wide                  bool    // 450 000-unit queries (≈3 owners) instead of 6 000 (one owner)
	cold                  bool    // clear the client's route cache before every operation
	kills                 int     // serving non-seed peers fail-stopped during the kill phase
	rate                  float64 // base open-loop arrival rate R, operations per second
	slo                   time.Duration
	why                   string
	smokeRun              bool // set by smoke: one-second phases, few iterations
}

const (
	narrowSpan = 6_000
	wideSpan   = 450_000
)

// workloads is the benchmark's fixed set. Base rates are about a quarter of
// the seed's closed-loop goodput on a 2-core machine, rounded to two
// significant figures; benchmark/README.md records the calibration runs.
var workloads = []workloadSpec{
	{
		name: "mixed_mem", peers: 8, query: 60, insert: 20, delete: 20,
		rate: 350, slo: 20 * time.Millisecond,
		why: "the floor: every op is one validated round trip, so codec, mux, route-cache hit, datastore handler and the replica push do the work",
	},
	{
		name: "scan_cold", peers: 16, query: 100, wide: true, cold: true,
		rate: 140, slo: 40 * time.Millisecond,
		why: "the read path beyond one round trip: router descent, the pipelined scan planner and large-payload codec; no writes, so a write-path change must not move it",
	},
	{
		name: "write_wal", peers: 8, wal: true, query: 10, insert: 45, delete: 45,
		rate: 46, slo: 150 * time.Millisecond,
		why: "the durable write path: fsync per WAL append inside the datastore lock and per replica record on every push; the few reads pay for the lock held across fsync",
	},
	{
		name: "churn", peers: 8, free: 3, secured: true, query: 60, insert: 20, delete: 20, kills: 3,
		rate: 350, slo: time.Second,
		why: "the deployed configuration under failure: auth, leases and gossip on while three peers fail-stop and their ranges are revived, split and re-leased",
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to three peers so the package's own test can run
// every phase in a few seconds; the numbers it prints mean nothing.
func (w workloadSpec) smoke() workloadSpec {
	w.smokeRun = true
	w.peers = 3
	if w.free > 1 {
		w.free = 1
	}
	if w.kills > 1 {
		w.kills = 1
	}
	if w.rate > 100 {
		w.rate = 100
	}
	return w
}

// span is the workload's query width in key units.
func (w workloadSpec) span() uint64 {
	if w.wide {
		return w.fit(wideSpan)
	}
	return narrowSpan
}

// fit clips a query width to half the data set, which only a smoke run's
// three peers make smaller than a wide query.
func (w workloadSpec) fit(span uint64) uint64 {
	if half := uint64(w.peers*regionSpan) / 2; span > half {
		return half
	}
	return span
}

// phases is the timing of one run, derived from the -seconds budget. The
// open phase steps the arrival rate from R to 2R; the closed phase runs nproc
// callers back to back. A workload with kills spends two fifths of its budget
// on a kill phase at R first, and measures the same three steps on the healed
// cluster in the rest.
type phases struct {
	warmup, kill, stepR, step2R, closed time.Duration
}

func planPhases(w workloadSpec, seconds float64) phases {
	if w.smokeRun {
		p := phases{warmup: 250 * time.Millisecond, stepR: time.Second, step2R: time.Second / 2, closed: time.Second / 2}
		if w.kills > 0 {
			p.kill = time.Second
		}
		return p
	}
	total := time.Duration(seconds * float64(time.Second))
	warm := total / 8
	if warm > 3*time.Second {
		warm = 3 * time.Second
	}
	p := phases{warmup: warm}
	if w.kills > 0 {
		p.kill = total * 2 / 5
		total -= p.kill
	}
	p.stepR = total / 2
	p.step2R = total / 5
	p.closed = total - p.stepR - p.step2R
	return p
}
