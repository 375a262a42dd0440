package metrics

import "runtime"

// RuntimeSnapshot is the Go runtime's side of a metrics snapshot: the
// heap and GC numbers an allocation pass is judged by. Scraped from
// runtime.MemStats at snapshot time — a stop-the-world-free read — so
// every exposition surface (MetricsSnapshot, the wire Introspect frame,
// /debug/stats and /debug/vars) carries the same fields fdbload's report
// aggregates.
type RuntimeSnapshot struct {
	// HeapAllocBytes is the live heap at snapshot time.
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	// TotalAllocBytes is cumulative bytes allocated since process start.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	// Mallocs is the cumulative count of heap objects allocated; the
	// delta between two snapshots divided by ops is allocs-per-op.
	Mallocs uint64 `json:"mallocs"`
	// NumGC is the number of completed GC cycles.
	NumGC uint32 `json:"num_gc"`
	// GCPauseTotalNs is the cumulative stop-the-world pause time.
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
}

// ReadRuntime captures the current runtime numbers.
func ReadRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSnapshot{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		NumGC:           ms.NumGC,
		GCPauseTotalNs:  ms.PauseTotalNs,
		Goroutines:      runtime.NumGoroutine(),
	}
}
