package metrics

import (
	"bytes"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests")
	g := r.Gauge("test_depth", "depth")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(-2.5)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := g.Value(); got != 4.5 {
		t.Fatalf("gauge = %v, want 4.5", got)
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	g.Dec()
	h.Observe(0.5)
	cv.With("x").Inc()
	hv.With("y").Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVectorsAndEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_http_total", "by path", "path", "code")
	cv.With("/v1/match", "200").Add(3)
	cv.With("/v1/match", "429").Inc()
	cv.With(`/weird"path`+"\n", "200").Inc()
	if cv.With("/v1/match", "200") != cv.With("/v1/match", "200") {
		t.Fatal("With must return the same child for the same labels")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `test_http_total{path="/v1/match",code="200"} 3`) {
		t.Errorf("missing labeled sample:\n%s", out)
	}
	if !strings.Contains(out, `path="/weird\"path\n"`) {
		t.Errorf("label escaping broken:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ok_total", "")
	for name, fn := range map[string]func(){
		"duplicate":    func() { r.Counter("test_ok_total", "") },
		"invalid name": func() { r.Counter("bad-name", "") },
		"bad label":    func() { r.CounterVec("test_v_total", "", "bad-label") },
		"no labels":    func() { r.CounterVec("test_v2_total", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("test_live_gauge", "live", func() float64 { return n })
	r.CounterFunc("test_live_total", "live", func() float64 { return n + 1 })
	n = 41
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_live_gauge 41") || !strings.Contains(b.String(), "test_live_total 42") {
		t.Fatalf("func collectors not scraped:\n%s", b.String())
	}
}

// TestParseRoundTrip is the exposition-validity gate: everything the
// writer emits must come back intact through the parser.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Add(7)
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(-1.25)
	h := r.Histogram("test_seconds", "a histogram", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(2)
	hv := r.HistogramVec("test_by_path_seconds", "labeled histogram", []float64{1}, "path")
	hv.With("/a").Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	ct := fams["test_total"]
	if ct == nil || ct.Type != "counter" || len(ct.Samples) != 1 || ct.Samples[0].Value != 7 {
		t.Fatalf("counter family wrong: %+v", ct)
	}
	gg := fams["test_gauge"]
	if gg == nil || gg.Type != "gauge" || gg.Samples[0].Value != -1.25 {
		t.Fatalf("gauge family wrong: %+v", gg)
	}
	hh := fams["test_seconds"]
	if hh == nil || hh.Type != "histogram" {
		t.Fatalf("histogram family wrong: %+v", hh)
	}
	// 3 buckets (0.5, 1, +Inf) + sum + count = 5 samples.
	if len(hh.Samples) != 5 {
		t.Fatalf("histogram samples = %d, want 5: %+v", len(hh.Samples), hh.Samples)
	}
	var infSeen bool
	for _, s := range hh.Samples {
		if s.Labels["le"] == "+Inf" && s.Value == 2 {
			infSeen = true
		}
	}
	if !infSeen {
		t.Fatalf("+Inf bucket missing or wrong: %+v", hh.Samples)
	}
	lv := fams["test_by_path_seconds"]
	if lv == nil || lv.Type != "histogram" {
		t.Fatalf("labeled histogram missing: %+v", lv)
	}
	for _, s := range lv.Samples {
		if s.Labels["path"] != "/a" {
			t.Fatalf("labeled histogram sample lost its label: %+v", s)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_q_seconds", "", []float64{0.1, 0.2, 0.4, 0.8})
	for i := 0; i < 100; i++ {
		h.Observe(0.15) // all in the (0.1, 0.2] bucket
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	var buckets []Sample
	for _, s := range fams["test_q_seconds"].Samples {
		if _, ok := s.Labels["le"]; ok {
			buckets = append(buckets, s)
		}
	}
	p50 := HistogramQuantile(0.5, buckets)
	if p50 < 0.1 || p50 > 0.2 {
		t.Fatalf("p50 = %v, want within (0.1, 0.2]", p50)
	}
	if !math.IsNaN(HistogramQuantile(0.5, nil)) {
		t.Fatal("empty histogram must yield NaN")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "t").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	fams, err := Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if fams["test_total"] == nil {
		t.Fatal("handler did not serve the registry")
	}
}

func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "")
	h := r.Histogram("test_seconds", "", nil)
	cv := r.CounterVec("test_vec_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				cv.With("a").Inc()
				if j%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || cv.With("a").Value() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d v=%d", c.Value(), h.Count(), cv.With("a").Value())
	}
}

// TestVecFirstUseConcurrent hammers the *first* resolution of each
// child: every goroutine races to create the same fresh label tuple.
// The payload must be created under the family lock — a lazy nil-check
// in With would both race and lose updates here.
func TestVecFirstUseConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("first_total", "", "k")
	hv := r.HistogramVec("first_seconds", "", nil, "k")
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < rounds; j++ {
				key := fmt.Sprintf("k%d", j)
				cv.With(key).Inc()
				hv.With(key).Observe(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	for j := 0; j < rounds; j++ {
		key := fmt.Sprintf("k%d", j)
		if got := cv.With(key).Value(); got != workers {
			t.Fatalf("counter %s: lost first-use updates: got %d, want %d", key, got, workers)
		}
		if got := hv.With(key).Count(); got != workers {
			t.Fatalf("histogram %s: lost first-use updates: got %d, want %d", key, got, workers)
		}
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_b_total", "")
	r.Gauge("test_a_gauge", "")
	got := r.Names()
	if len(got) != 2 || got[0] != "test_a_gauge" || got[1] != "test_b_total" {
		t.Fatalf("Names() = %v", got)
	}
}

// TestRegisterRuntime: the Go runtime families are exported, read live
// at scrape time, and parse as valid exposition.
func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	r.RegisterRuntime()
	runtime.GC() // at least one completed cycle, so heap-live is known
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(&buf)
	if err != nil {
		t.Fatalf("runtime families do not parse: %v", err)
	}
	for _, name := range []string{
		"phomd_go_heap_live_bytes", "phomd_go_heap_objects", "phomd_go_goroutines", "phomd_go_gc_cycles_total",
	} {
		f := fams[name]
		if f == nil || len(f.Samples) != 1 || f.Samples[0].Value <= 0 {
			t.Errorf("%s: want one positive sample, got %+v", name, f)
		}
	}
	if f := fams["phomd_go_gc_pause_cpu_seconds_total"]; f == nil || len(f.Samples) != 1 || f.Samples[0].Value < 0 {
		t.Errorf("phomd_go_gc_pause_cpu_seconds_total: want one sample, got %+v", f)
	}
}
