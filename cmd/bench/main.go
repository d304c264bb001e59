// Command bench is the repository's one committed benchmark. It builds
// the real phomd binary from the checkout, boots it as a child process
// on a prepared -store directory, and drives it over loopback HTTP in a
// closed loop — phomd's callers are pipelines that wait for each reply
// — from two keep-alive connections.
//
// Work is fixed, not time: a workload is a seeded, pre-encoded request
// sequence; a run is warm-up plus five rounds that replay the same N
// operations, and every end-to-end timing is the median over rounds.
// Answers are verified off the clock and any wrong one fails the run.
//
//	go run ./cmd/bench                         # all four workloads
//	go run ./cmd/bench -trace 1                # … plus every per-layer metric, writes BENCH_spans.json
//	go run ./cmd/bench -workload point_label -seed 7
//	go run ./cmd/bench -selfcheck              # the suite twice (A/A), compared against the bounds
//	go run ./cmd/bench -out a.json; … ; go run ./cmd/bench -compare a.json,b.json
//
// The driver contract (BENCHMARK.json) is the -workload form: the last
// line of standard output is one JSON object with the metrics. See
// README.md beside this file for the metric and workload tables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// buildDir is the only place the benchmark writes besides BENCH_*.json
// reports; both are git-ignored.
const buildDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "run one workload and end with the driver's JSON result line (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same bytes on the wire")
	seconds := flag.Int("seconds", 0, "how long the five rounds take on the reference host; sizes N (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and the per-layer metrics derived from it")
	smoke := flag.Bool("smoke", false, "toy sizes: every code path, no meaningful numbers")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice on the same binary and compare the two against the bounds")
	out := flag.String("out", "", "also write the reports as JSON to this file")
	cmp := flag.String("compare", "", "a.json,b.json: compare two -out files against the bounds and exit")
	spec := flag.String("spec", "BENCHMARK.json", "path of the benchmark contract")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace == 1, *smoke, *selfcheck, *out, *cmp, *spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errWrong = errors.New("the server gave wrong answers, or two runs disagreed beyond a bound")

func run(workload string, seed int64, seconds int, trace, smoke, selfcheck bool, out, cmp, specPath string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	if cmp != "" {
		a, b, ok := strings.Cut(cmp, ",")
		if !ok {
			return fmt.Errorf("-compare wants a.json,b.json")
		}
		ra, err := readReports(a)
		if err != nil {
			return err
		}
		rb, err := readReports(b)
		if err != nil {
			return err
		}
		if !compare(os.Stdout, spec, ra, rb, false) {
			return errWrong
		}
		return nil
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	bin, err := buildPhomd(buildDir)
	if err != nil {
		return err
	}
	// An interrupted run must not leave a phomd behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if c := live.Load(); c != nil {
			c.kill()
		}
		os.Exit(1)
	}()

	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	suite := func() ([]report, error) {
		var reps []report
		for _, name := range names {
			dir, err := os.MkdirTemp(buildDir, "run-")
			if err != nil {
				return nil, err
			}
			dir, err = filepath.Abs(dir)
			if err != nil {
				return nil, err
			}
			rep, err := runWorkload(runOpts{
				workload: name, seed: seed, seconds: seconds, trace: trace, smoke: smoke, bin: bin, workDir: dir,
			})
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rep.print(os.Stdout)
			reps = append(reps, *rep)
		}
		return reps, nil
	}

	reps, err := suite()
	if err != nil {
		return err
	}
	ok := true
	if selfcheck {
		again, err := suite()
		if err != nil {
			return err
		}
		fmt.Println("== A/A: second run against the first")
		ok = compare(os.Stdout, spec, reps, again, true)
		reps = append(reps, again...)
	}
	if out != "" {
		if err := writeReports(out, reps); err != nil {
			return err
		}
	}
	if trace {
		if err := writeSpans(spansFile, reps); err != nil {
			return err
		}
	}
	for _, r := range reps {
		ok = ok && r.Correct
	}
	if workload != "" {
		fmt.Println(reps[0].resultLine(trace))
	}
	if !ok {
		return errWrong
	}
	return nil
}
