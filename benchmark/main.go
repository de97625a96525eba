// Command benchmark is the P-Ring client-path benchmark: it boots a cluster
// of standalone peers over loopback TCP in this process, drives it through
// the public client tier, checks every result against an oracle, and prints
// every metric by name with its unit. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: mixed_mem, scan_cold, write_wal or churn")
		all      = flag.Bool("all", false, "run the four workloads, each in a process of its own")
		seed     = flag.Int64("seed", 1, "derives arrivals, operation mix and keys")
		seconds  = flag.Float64("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics; 0: report the end-to-end metrics")
		out      = flag.String("out", "", "append the run's full report to this JSON file")
		smoke    = flag.Bool("smoke", false, "three peers and a low rate: exercises every phase, measures nothing")
		compare  = flag.Bool("compare", false, "compare two -out files against the bounds in ./BENCHMARK.json: -compare a.json b.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
	case *all:
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace)}
			if *out != "" {
				args = append(args, "-out", *out)
			}
			if *smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fail(fmt.Errorf("workload %s: %w", w.name, err))
			}
		}
	default:
		spec, err := findWorkload(*workload)
		if err != nil {
			fail(err)
		}
		if *smoke {
			spec = spec.smoke()
		}
		if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
			fail(err)
		}
		runDir, err := os.MkdirTemp(scratchRoot, spec.name+"-")
		if err != nil {
			fail(err)
		}
		rep, err := runWorkload(runConfig{spec: spec, seed: *seed, seconds: *seconds, trace: *trace != 0, runDir: runDir})
		if err != nil {
			fail(err)
		}
		rep.print(os.Stdout)
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				fail(err)
			}
		}
		line, err := rep.resultLine()
		if err != nil {
			fail(err)
		}
		fmt.Println(line)
	}
}

// scratchRoot is where a run keeps its WAL directories and span dump: a
// directory inside the checkout the benchmark was started from.
const scratchRoot = ".bench_run"

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
