package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke runs put every phase of the two widest workloads through its
// paces on three peers: churn traced (authenticated transport, a kill and its
// healing, every per-layer measurement) and write_wal untraced (the WAL
// backend and the durability audit). Their numbers mean nothing; the runs
// must complete, find no wrong result, and produce the driver's result line.
func TestSmoke(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"churn", true}, {"write_wal", false}} {
		tc := tc
		t.Run(tc.workload, func(t *testing.T) {
			t.Parallel()
			spec, err := findWorkload(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runWorkload(runConfig{spec: spec.smoke(), seed: 7, seconds: 4, trace: tc.trace,
				runDir: filepath.Join(t.TempDir(), "run")})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			rep.print(&out)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("smoke run not clean:\n%s", out.String())
			}
			line, err := rep.resultLine()
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatalf("result line is not JSON: %v", err)
			}
			want := endToEnd
			if tc.trace {
				want = perLayer
			}
			if len(parsed.Metrics) != len(want) {
				t.Fatalf("result line carries %d metrics, want %d", len(parsed.Metrics), len(want))
			}
			if tc.trace && rep.Metrics["outage_ms"].Value <= 0 {
				t.Errorf("the kill's outage was not measured:\n%s", out.String())
			}
		})
	}
}

// BENCHMARK.json at the repository root states the benchmark's contract; the
// tables in this package are what the program reports. They must agree.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	bench, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bench.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, listed []boundedMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			got := listed[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got, d)
			}
		}
	}
	check("end-to-end", bench.EndToEnd, endToEnd)
	check("per-layer", bench.PerLayer, perLayer)
}

func TestCompareVerdicts(t *testing.T) {
	lower := boundedMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "goodput_ops_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 60, 140, 90, 120}
	for _, tc := range []struct {
		name string
		m    boundedMetric
		a, b []float64
		want string
	}{
		{"within the bound", lower, steady, []float64{105, 106, 104}, "ok"},
		{"beyond the bound", lower, steady, []float64{120, 121, 119}, "worse"},
		{"an improvement", lower, steady, []float64{50, 51, 49}, "ok"},
		{"higher is better and it fell", higher, steady, []float64{80, 81, 79}, "worse"},
		{"spread wider than the bound", lower, noisy, []float64{104, 61, 139}, "unresolved"},
		{"beyond both bound and spread", lower, noisy, []float64{300, 310, 290}, "worse"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 3; seed++ {
			r := &report{Workload: "mixed_mem", Seed: seed, Metrics: map[string]metric{"op_p50_ms": {Value: p50 + float64(seed)/100, Unit: "ms"}}}
			if err := appendReport(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"workloads":[{"name":"mixed_mem"}],
		"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, same, slow := write("a.json", 1.0), write("same.json", 1.02), write("slow.json", 1.5)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, bench, a, same); err != nil || worse {
		t.Fatalf("equal runs: worse %t err %v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err := compareFiles(&out, bench, a, slow)
	if err != nil || !worse {
		t.Fatalf("a 50 %% regression: worse %t err %v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "1.5") {
		t.Fatalf("the row does not show the verdict and the values:\n%s", out.String())
	}
}
