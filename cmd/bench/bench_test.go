package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// The same seed must put the same bytes on the wire, and another seed
// other bytes: the whole A/A argument rests on it.
func TestSeedFixesRequestSequence(t *testing.T) {
	for _, name := range workloadNames {
		gen := func(seed int64) string {
			w, err := generate(name, seed, 5, true)
			if err != nil {
				t.Fatal(err)
			}
			return w.fingerprint()
		}
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different request sequences", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
	}
}

func TestGenerateRejectsUnknownWorkload(t *testing.T) {
	if _, err := generate("nope", 1, 5, true); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	m := overValues("x", "ms", []float64{3, 9, 4, 1, 5}, 7)
	if m.Value != 4 || m.Min != 1 || m.Max != 9 || m.Samples != 7 {
		t.Errorf("overValues = %+v", m)
	}
}

func TestCompareAppliesBounds(t *testing.T) {
	spec := &benchmarkSpec{}
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"ops_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), spec); err != nil {
		t.Fatal(err)
	}
	rep := func(ops, p50 float64) []report {
		return []report{{Workload: "w", EndToEnd: []metric{single("ops_s", "1/s", ops, 1), single("p50_ms", "ms", p50, 1)}}}
	}
	for _, tc := range []struct {
		ops, p50 float64
		ok       bool
	}{{100, 1, true}, {91, 1.09, true}, {200, 0.5, true}, {89, 1, false}, {100, 1.11, false}} {
		if got := compare(io.Discard, spec, rep(100, 1), rep(tc.ops, tc.p50), false); got != tc.ok {
			t.Errorf("compare(ops %v, p50 %v) = %v, want %v", tc.ops, tc.p50, got, tc.ok)
		}
	}
}

// TestSmoke runs all four workloads at toy size against a real phomd
// child, traced, and proves the report names exactly the metrics
// BENCHMARK.json declares, with the declared units, and that the
// driver's result line parses.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if len(declared) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, workloadNames)
	}
	for i, name := range workloadNames {
		if declared[i] != name {
			t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, workloadNames)
		}
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "phomd")
	if out, err := exec.Command("go", "build", "-o", bin, "graphmatch/cmd/phomd").CombinedOutput(); err != nil {
		t.Fatalf("building phomd: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		work := filepath.Join(dir, name)
		if err := os.Mkdir(work, 0o755); err != nil {
			t.Fatal(err)
		}
		rep, err := runWorkload(runOpts{
			workload: name, seed: 3, seconds: 1, trace: true, smoke: true,
			bin: bin, workDir: work,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", name, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
		}
		want := map[string]string{}
		for _, m := range spec.EndToEnd {
			want[m.Name] = m.Unit
		}
		checkNames(t, name+" end_to_end", want, rep.EndToEnd)
		want = map[string]string{}
		for _, m := range spec.PerLayer {
			want[m.Name] = m.Unit
		}
		checkNames(t, name+" per_layer", want, rep.PerLayer)

		for _, trace := range []bool{false, true} {
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(rep.resultLine(trace)), &line); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			n := len(spec.EndToEnd)
			if trace {
				n = len(spec.PerLayer)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != n {
				t.Errorf("%s trace=%v: result line %s", name, trace, rep.resultLine(trace))
			}
			for k, m := range line.Metrics {
				if m.Value == nil || math.IsNaN(*m.Value) || m.Unit == "" {
					t.Errorf("%s: metric %s in result line has no value or unit", name, k)
				}
			}
		}
		for _, m := range rep.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, m.Value)
			}
		}
		if len(rep.Spans) == 0 {
			t.Errorf("%s: the traced run recorded no spans", name)
		}
	}
}

func checkNames(t *testing.T, what string, want map[string]string, got []metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		seen[m.Name] = true
		unit, ok := want[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: reports %s, which BENCHMARK.json does not declare", what, m.Name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, m.Unit, unit)
		}
	}
	var missing []string
	for name := range want {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%s: BENCHMARK.json declares %v, not reported", what, missing)
	}
}
