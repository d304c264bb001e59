package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// percentile returns the nearest-rank q-quantile of an ascending
// slice: the smallest sample with at least q of the samples at or
// below it. Empty input reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the middle sample, or the mean of the two middle samples.
// It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// metric is one reported number. Min and Max are the extremes over the
// values the median was taken of (rounds, boots or traced ops);
// Samples is how many observations each of those values rests on.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// overValues reports the median of vals with their extremes.
func overValues(name, unit string, vals []float64, samples int) metric {
	m := metric{Name: name, Unit: unit, Value: median(vals), Samples: samples}
	if len(vals) > 0 {
		m.Min, m.Max = vals[0], vals[0]
		for _, v := range vals {
			m.Min, m.Max = math.Min(m.Min, v), math.Max(m.Max, v)
		}
	}
	return m
}

func single(name, unit string, v float64, samples int) metric {
	return metric{Name: name, Unit: unit, Value: v, Min: v, Max: v, Samples: samples}
}

// stamp records where and how a report was produced.
type stamp struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Rounds     int      `json:"rounds"`
	Clients    int      `json:"clients"`
	OpsPerRnd  int      `json:"ops_per_round"`
	PhomdFlags []string `json:"phomd_flags"`
	Requests   string   `json:"request_sequence_sha256"`
}

func newStamp(w *workload, seed int64, seconds int) stamp {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Rounds: rounds, Clients: clients,
		OpsPerRnd: w.opsPerRound(), PhomdFlags: w.phomdFlags(), Requests: w.fingerprint(),
	}
}

// report is the one JSON schema every mode writes: a single workload
// run. -out files and the -compare inputs are arrays of it.
type report struct {
	Workload  string   `json:"workload"`
	Env       stamp    `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	// Spans are the traced run's timed calls, kept in memory until the
	// benchmark exits and written to their own file, not the report.
	Spans []span `json:"-"`
}

func (r *report) find(name string) (metric, bool) {
	for _, ms := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// print writes every metric by name and unit, with the spread the
// median hides and the sample count it rests on.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d  N=%d ops/round × %d rounds, %d closed-loop clients\n",
		r.Workload, r.Env.Seed, r.Env.Seconds, r.Env.OpsPerRnd, r.Env.Rounds, r.Env.Clients)
	fmt.Fprintf(w, "   commit=%s %s NumCPU=%d GOMAXPROCS=%d phomd %s\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.NumCPU, r.Env.GOMAXPROCS, strings.Join(r.Env.PhomdFlags, " "))
	row := func(m metric) {
		fmt.Fprintf(w, "   %-32s %-6s %14.6g   min %-12.6g max %-12.6g n=%d\n", m.Name, m.Unit, m.Value, m.Min, m.Max, m.Samples)
	}
	for _, m := range r.EndToEnd {
		row(m)
	}
	for _, m := range r.PerLayer {
		row(m)
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
}

// resultLine is the driver contract: the last line of standard output.
func (r *report) resultLine(trace bool) string {
	ms := r.EndToEnd
	if trace {
		ms = r.PerLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN/Inf can fail, and every value is a finite measurement
	}
	return string(b)
}

// benchmarkSpec is BENCHMARK.json, the contract the driver reads. The
// benchmark reads it back for the bounds -selfcheck and -compare apply
// and so the smoke test can prove every declared metric is reported.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readReports(path string) ([]report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []report
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func writeReports(path string, rs []report) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeSpans(path string, rs []report) error {
	type entry struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	entries := make([]entry, len(rs))
	for i, r := range rs {
		entries[i] = entry{r.Workload, r.Spans}
	}
	data, err := json.Marshal(entries)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// compare prints, for every end-to-end metric of every workload in
// both sets, how much worse b reads than a as a share of a, beside the
// bound BENCHMARK.json fixes, and reports whether every pair agrees.
// With sameInputs (an A/A of one seed) quality_mean, which no clock
// enters, must agree exactly.
func compare(w io.Writer, spec *benchmarkSpec, a, b []report, sameInputs bool) bool {
	ok := true
	for _, ra := range a {
		for _, rb := range b {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, e := range spec.EndToEnd {
				ma, okA := ra.find(e.Name)
				mb, okB := rb.find(e.Name)
				if !okA || !okB || ma.Value == 0 {
					continue
				}
				worse := (mb.Value - ma.Value) / ma.Value
				if e.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				if worse > e.Bound {
					verdict, ok = "WORSE", false
				}
				if sameInputs && e.Name == "quality_mean" && ma.Value != mb.Value {
					verdict, ok = "DIFFERS", false
				}
				fmt.Fprintf(w, "%-12s %-14s %-5s a=%-12.6g b=%-12.6g worse by %+7.2f%%  bound %4.1f%%  %s\n",
					ra.Workload, e.Name, e.Unit, ma.Value, mb.Value, 100*worse, 100*e.Bound, verdict)
			}
			sa, _ := ra.find("bench.round_spread")
			sb, _ := rb.find("bench.round_spread")
			if sa.Samples > 0 || sb.Samples > 0 {
				fmt.Fprintf(w, "%-12s %-14s ratio a=%-12.6g b=%-12.6g\n", ra.Workload, "round_spread", sa.Value, sb.Value)
			}
		}
	}
	return ok
}
