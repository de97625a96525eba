// Command benchrunner regenerates the paper's evaluation figures
// (Section 6) and prints each as a text table: one row per x value, one
// column per series.
//
// Usage:
//
//	benchrunner [-fig N] [-scale ms] [-run paperS] [-quick] [-seed n]
//	            [-json FILE]
//
// With no -fig, every figure (19–23) runs in order. -quick shrinks the
// sweeps for a fast sanity pass. -json also writes every regenerated figure
// to FILE as a machine-readable report; CI's bench-smoke job uploads that
// file as the per-PR benchmark artifact (see README.md). Times are reported
// in "paper seconds": the workload runs with every period scaled down by
// -scale (real milliseconds per paper second) and measured durations are
// scaled back up, so series are directly comparable in shape with the
// paper's plots (see bench.Params).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
)

// report is the -json artifact: one entry per regenerated figure, plus
// enough run metadata to compare artifacts across PRs.
type report struct {
	GeneratedAt string            `json:"generated_at"`
	Quick       bool              `json:"quick"`
	ScaleMS     float64           `json:"scale_ms"`
	Seed        int64             `json:"seed"`
	Figures     []*metrics.Figure `json:"figures"`
}

func main() {
	figNum := flag.Int("fig", 0, "figure to regenerate (19..23); 0 = all")
	scaleMS := flag.Float64("scale", 5, "real milliseconds per paper second")
	runS := flag.Float64("run", 0, "measured run length in paper seconds (0 = default)")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast pass")
	seed := flag.Int64("seed", 1, "workload seed")
	ablation := flag.Bool("ablation", true, "include the no-proactive-contact ablation in figure 20")
	jsonPath := flag.String("json", "", "also write the regenerated figures to this file as JSON")
	flag.Parse()

	p := bench.Params{
		Scale: time.Duration(*scaleMS * float64(time.Millisecond)),
		RunS:  *runS,
		Seed:  *seed,
	}

	lengths := []int{2, 3, 4, 5, 6, 7, 8}
	periods := []float64{2, 3, 4, 5, 6, 7, 8}
	rates := []float64{0, 2, 4, 6, 8, 10, 12}
	maxHops, queries := 12, 600
	if *quick {
		lengths = []int{2, 4, 8}
		periods = []float64{2, 4, 8}
		rates = []float64{0, 6, 12}
		maxHops, queries = 8, 200
		if p.RunS == 0 {
			p.RunS = 40
		}
	}

	type job struct {
		num int
		run func() (*metrics.Figure, error)
	}
	jobs := []job{
		{19, func() (*metrics.Figure, error) { return bench.Fig19(p, lengths) }},
		{20, func() (*metrics.Figure, error) { return bench.Fig20(p, periods, *ablation) }},
		{21, func() (*metrics.Figure, error) { return bench.Fig21(p, maxHops, queries) }},
		{22, func() (*metrics.Figure, error) { return bench.Fig22(p, lengths) }},
		{23, func() (*metrics.Figure, error) { return bench.Fig23(p, rates) }},
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:       *quick,
		ScaleMS:     *scaleMS,
		Seed:        *seed,
	}
	for _, j := range jobs {
		if *figNum != 0 && j.num != *figNum {
			continue
		}
		start := time.Now()
		fig, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %d failed: %v\n", j.num, err)
			os.Exit(1)
		}
		fmt.Println(fig.Render())
		fmt.Printf("# figure %d regenerated in %v\n\n", j.num, time.Since(start).Round(time.Millisecond))
		rep.Figures = append(rep.Figures, fig)
	}
	if len(rep.Figures) == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %d (valid: 19..23)\n", *figNum)
		os.Exit(2)
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "encoding %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("# wrote %d figures to %s\n", len(rep.Figures), *jsonPath)
	}
}
