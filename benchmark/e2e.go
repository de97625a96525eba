package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
)

// counters is a snapshot of the cumulative counts the run differences over
// the measured phases.
type counters struct {
	cli        client.Stats
	walRecords uint64
	snapshots  uint64
	events     int
	rounds     uint64
}

func (r *run) snapshotCounters() counters {
	c := counters{cli: r.cli.Stats()}
	for _, n := range r.cl.nodes {
		if n.dead {
			continue
		}
		p := n.sa.CurrentPeer()
		st := p.Backend.Stats()
		c.walRecords += st.Records
		c.snapshots += st.Snapshots
		c.events += len(n.sa.Log.Events())
		if p.Gossip != nil {
			c.rounds += p.Gossip.Rounds()
		}
	}
	return c
}

// closedSlices returns the closed-phase slices recorded with the tracer in
// the given state.
func (r *run) closedSlices(traced bool) []*slice {
	var out []*slice
	for _, sl := range r.closed {
		if sl.traced == traced {
			out = append(out, sl)
		}
	}
	return out
}

// perOp is the median over slices of a per-operation cost.
func perOp(slices []*slice, cost func(*slice) float64) (float64, int) {
	var v []float64
	ops := 0
	for _, sl := range slices {
		if n := len(sl.res.ok); n > 0 {
			v = append(v, cost(sl)/float64(n))
			ops += n
		}
	}
	return median(v), ops
}

func cpuPerOp(slices []*slice) (float64, int) {
	return perOp(slices, func(sl *slice) float64 { return us(sl.cpu) })
}

// goodput is the median over slices of correct operations per second.
func goodput(slices []*slice) (float64, int) {
	var v []float64
	for _, sl := range slices {
		v = append(v, float64(len(sl.res.ok))/sl.res.elapsed.Seconds())
	}
	return median(v), len(v)
}

// endToEnd fills the metrics a user sees, and the run's verdict. They come
// from the steady steps: on a workload with kills those follow the kill
// phase, on the healed cluster.
func (r *run) endToEnd(setup time.Duration) {
	rep := r.rep
	rep.set("setup_s", setup.Seconds())

	rep.setPercentile("op_p50_ms", r.stepR.lat(), 0.50)
	rep.setPercentile("op_p95_ms", r.stepR.lat(), 0.95)
	rep.setPercentile("hi_p95_ms", r.step2R.lat(), 0.95)

	plain := r.closedSlices(false)
	g, n := goodput(plain)
	rep.setN("goodput_ops_s", g, n)
	// CPU per operation is taken at the fixed rate R, where the background
	// work a second carries is spread over the same number of operations in
	// every run; in the closed loop it would move with the goodput.
	var perWindow []float64
	ops := 0
	for _, w := range r.stepR.cpu {
		if w.ops > 0 {
			perWindow = append(perWindow, us(w.cpu)/float64(w.ops))
			ops += w.ops
		}
	}
	rep.setN("cpu_us_per_op", median(perWindow), ops)

	// The limit is checked on every open-loop operation, kill phase included:
	// a failed or incorrect operation misses it by definition.
	open := result{}
	open.addCounts(r.stepR)
	open.addCounts(r.step2R)
	if r.killRes != nil {
		open.addCounts(r.killRes)
	}
	missed := open.failed + open.incorrect + open.late
	rep.setN("slo_ok_share", 1-float64(missed)/float64(open.attempted), open.attempted)
	rep.set("peak_rss_mb", peakRSSMiB())

	// The issue's per-kind metrics, reported beside the per-layer ones.
	rep.setPercentile("query_p50_ms", r.stepR.lat(opQuery), 0.50)
	rep.setPercentile("query_p99_ms", r.stepR.lat(opQuery), 0.99)
	rep.setPercentile("mutate_p50_ms", r.stepR.lat(opInsert, opDelete), 0.50)
	rep.setPercentile("mutate_p99_ms", r.stepR.lat(opInsert, opDelete), 0.99)
	rep.setPercentile("hi_p99_ms", r.step2R.lat(), 0.99)
	rep.setN("slo_miss_share", float64(missed)/float64(open.attempted), open.attempted)
	rep.setN("failed_share", float64(r.total.failed+r.total.incorrect)/float64(r.total.attempted), r.total.attempted)
	var outages []float64
	for i, k := range r.kills {
		rep.Notes = append(rep.Notes, fmt.Sprintf("kill %d: outage %.0f ms, range revived after %.0f ms, %d keys left unsure",
			i+1, ms(k.outage), ms(k.revive), k.unsure))
		if k.outage > 0 {
			outages = append(outages, ms(k.outage))
			rep.KillsHealed++
		}
	}
	rep.setN("outage_ms", median(outages), len(outages))

	rep.Attempted = r.total.attempted
	rep.Failed = r.total.failed + r.total.incorrect
	rep.Notes = append(rep.Notes, r.total.notes...)
	rep.Correct = r.total.incorrect == 0 && rep.AuditMissing == 0 && rep.AuditPhantom == 0 &&
		rep.LostAckedWrites == 0 && rep.ServingEnd == r.cfg.spec.peers && rep.KillsHealed == r.cfg.spec.kills
}

// sortedDurations returns a sorted copy.
func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
