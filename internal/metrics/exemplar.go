package metrics

import (
	"fmt"
	"io"
	"strings"
)

// exemplar is one sampled observation with a linkage label — in this
// codebase, a trace_id tying a latency bucket to a concrete request in
// the flight recorder.
type exemplar struct {
	labelKey string
	labelVal string
	value    float64
}

// ObserveWithExemplar records the observation like Observe and
// additionally retains (labelKey=labelVal, v) as the histogram's most
// recent exemplar. Exemplars surface only on the OpenMetrics
// exposition (Accept: application/openmetrics-text); the default
// text-format rendering is byte-identical with or without them.
func (h *Histogram) ObserveWithExemplar(v float64, labelKey, labelVal string) {
	if h == nil {
		return
	}
	h.Observe(v)
	h.ex.Store(&exemplar{labelKey: labelKey, labelVal: labelVal, value: v})
}

// WriteOpenMetrics renders the registry in the OpenMetrics 1.0 text
// format: counter families drop their "_total" suffix on HELP/TYPE
// lines (samples keep it), histogram bucket lines carry the family's
// most recent exemplar on the bucket containing its value, and the
// exposition ends with "# EOF".
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	b := &strings.Builder{}
	for _, f := range fams {
		f.writeOpenMetrics(b)
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeOpenMetrics(b *strings.Builder) {
	famName := f.name
	if f.kind == kindCounter {
		famName = strings.TrimSuffix(famName, "_total")
	}
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", famName, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", famName, f.kind)
	f.mu.Lock()
	series := append([]*series(nil), f.series...)
	f.mu.Unlock()
	for _, s := range series {
		switch {
		case s.fn != nil:
			writeSample(b, f.name, f.labelNames, s.labels, "", s.fn())
		case s.ctr != nil:
			writeSample(b, f.name, f.labelNames, s.labels, "", float64(s.ctr.Value()))
		case s.gauge != nil:
			writeSample(b, f.name, f.labelNames, s.labels, "", s.gauge.Value())
		case s.hist != nil:
			s.writeHistOpenMetrics(b, f)
		}
	}
}

// writeHistOpenMetrics renders one histogram series with its exemplar
// (if any) attached to the bucket line whose range contains the
// exemplar's value — the only placement OpenMetrics permits.
func (s *series) writeHistOpenMetrics(b *strings.Builder, f *family) {
	h := s.hist
	ex := h.ex.Load()
	exBucket := -1
	if ex != nil {
		exBucket = 0
		for exBucket < len(h.bounds) && ex.value > h.bounds[exBucket] {
			exBucket++
		}
	}
	writeBucket := func(i int, le string, cum uint64) {
		b.WriteString(f.name)
		b.WriteString("_bucket{")
		for j, ln := range f.labelNames {
			b.WriteString(ln)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(s.labels[j]))
			b.WriteString(`",`)
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteString(`"} `)
		b.WriteString(formatFloat(float64(cum)))
		if ex != nil && i == exBucket {
			fmt.Fprintf(b, " # {%s=%q} %s", ex.labelKey, ex.labelVal, formatFloat(ex.value))
		}
		b.WriteByte('\n')
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeBucket(i, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	writeBucket(len(h.bounds), "+Inf", cum)
	writeSample(b, f.name+"_sum", f.labelNames, s.labels, "", h.Sum())
	writeSample(b, f.name+"_count", f.labelNames, s.labels, "", float64(cum))
}

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics exposition.
func acceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}
