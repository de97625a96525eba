package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them; it needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // taken after clamping, so the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadOf is the distance between the quartiles as a share of the median;
// zero when fewer than two runs make it unknowable.
func spreadOf(v []float64) float64 {
	if len(v) < 2 || median(v) == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// valuesOf collects a metric's values per workload from the runs that
// measured it: end-to-end metrics come from untraced runs only.
func valuesOf(runs []*report, workload, name string, endToEnd bool) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || (endToEnd && r.Trace) {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict applies a metric's bound to the medians of two sets of runs. A
// change counts as worse only when it exceeds both the bound and the spread
// of the runs themselves; a metric whose spread is wider than its bound
// cannot be resolved either way.
func verdict(m boundedMetric, a, b []float64) string {
	base, now := median(a), median(b)
	if base == 0 {
		return "-"
	}
	spread := spreadOf(a)
	if s := spreadOf(b); s > spread {
		spread = s
	}
	change := (now - base) / base
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound && change > spread:
		return "worse"
	case spread > m.Bound:
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints one row per workload and metric present in both report
// files, and reports whether any bounded metric got worse.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	bench, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	runsA, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	runsB, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-10s %-36s %14s %14s %-8s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "unit", "b/a", "verdict")
	row := func(workload string, m boundedMetric, endToEnd bool) {
		a, b := valuesOf(runsA, workload, m.Name, endToEnd), valuesOf(runsB, workload, m.Name, endToEnd)
		if len(a) == 0 || len(b) == 0 {
			return
		}
		ratio := "-"
		if base := median(a); base != 0 {
			ratio = fmt.Sprintf("%.3f", median(b)/base)
		}
		note := "no bound" // per-layer metrics carry none
		if endToEnd {
			v := verdict(m, a, b)
			anyWorse = anyWorse || v == "worse"
			note = fmt.Sprintf("%s (bound %.2f, spread a %.3f b %.3f)", v, m.Bound, spreadOf(a), spreadOf(b))
		}
		fmt.Fprintf(w, "%-10s %-36s %14.4f %14.4f %-8s %8s  %s, runs %d/%d\n",
			workload, m.Name, median(a), median(b), m.Unit, ratio, note, len(a), len(b))
	}
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			row(wl.Name, m, true)
		}
		for _, m := range bench.PerLayer {
			row(wl.Name, m, false)
		}
	}
	return anyWorse, nil
}
