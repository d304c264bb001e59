package metrics

import rtm "runtime/metrics"

// RegisterRuntime adds the Go runtime's own health to r: the families a
// dashboard needs to see a leak or a GC-bound process without a profile.
// Every value is read from runtime/metrics when /metrics is scraped;
// nothing runs on a request path.
func (r *Registry) RegisterRuntime() {
	r.GaugeFunc("phomd_go_heap_live_bytes",
		"Heap bytes that were live at the end of the last garbage collection.",
		runtimeMetric("/gc/heap/live:bytes"))
	r.GaugeFunc("phomd_go_heap_objects",
		"Objects on the heap, live or not yet swept.",
		runtimeMetric("/gc/heap/objects:objects"))
	r.GaugeFunc("phomd_go_goroutines",
		"Live goroutines.",
		runtimeMetric("/sched/goroutines:goroutines"))
	r.CounterFunc("phomd_go_gc_cycles_total",
		"Completed garbage collection cycles.",
		runtimeMetric("/gc/cycles/total:gc-cycles"))
	r.CounterFunc("phomd_go_gc_pause_cpu_seconds_total",
		"Estimated CPU time the process spent stopped by the garbage collector (pause time × GOMAXPROCS).",
		runtimeMetric("/cpu/classes/gc/pause:cpu-seconds"))
}

// runtimeMetric reads one scalar of runtime/metrics; a runtime that
// does not export name reads as 0.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		s := []rtm.Sample{{Name: name}}
		rtm.Read(s)
		switch v := s[0].Value; v.Kind() {
		case rtm.KindUint64:
			return float64(v.Uint64())
		case rtm.KindFloat64:
			return v.Float64()
		}
		return 0
	}
}
