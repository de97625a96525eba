package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured. The -out file keeps a list of them.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Nproc     int               `json:"nproc"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"` // sample count behind a metric
	Notes     []string          `json:"notes,omitempty"`

	AuditMissing    int `json:"audit_missing"`
	AuditPhantom    int `json:"audit_phantom"`
	LostAckedWrites int `json:"lost_acked_writes"`
	ServingEnd      int `json:"serving_end"`
	KillsHealed     int `json:"kills_healed"`
}

func newReport(cfg runConfig, nproc int) *report {
	return &report{
		Workload: cfg.spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Nproc: nproc,
		Metrics: make(map[string]metric), Samples: make(map[string]int),
	}
}

// units maps every defined metric to its unit.
var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.name] = d.unit
	}
	for _, d := range perLayer {
		m[d.name] = d.unit
	}
	return m
}()

// set records a metric; the name must be one of the defined ones.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: undefined metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setN records a metric together with its sample count.
func (r *report) setN(name string, v float64, n int) {
	r.set(name, v)
	r.Samples[name] = n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setPercentile records the p-quantile of samples in the metric's unit, or
// zero with a note when the samples cannot support that percentile.
func (r *report) setPercentile(name string, samples []time.Duration, p float64) {
	v, n, err := percentile(samples, p)
	if err != nil {
		if n > 0 {
			r.Notes = append(r.Notes, fmt.Sprintf("%s not reported: %v", name, err))
		}
		r.setN(name, 0, n)
		return
	}
	if units[name] == "us" {
		r.setN(name, us(v), n)
	} else {
		r.setN(name, ms(v), n)
	}
}

// print writes every metric by name with its unit and sample count.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %t  nproc %d\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Nproc)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-38s %14.4f %s", n, m.Value, m.Unit)
		if c, ok := r.Samples[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %t  audit missing %d phantom %d  lost acked writes %d  serving at end %d\n",
		r.Attempted, r.Failed, r.Correct, r.AuditMissing, r.AuditPhantom, r.LostAckedWrites, r.ServingEnd)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// resultLine is the driver's contract: the last line of standard output.
func (r *report) resultLine() (string, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = m
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// appendReport adds the run to the list kept in path.
func appendReport(path string, r *report) error {
	runs, err := readReports(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	runs = append(runs, r)
	b, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []*report
	if err := json.Unmarshal(b, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}
