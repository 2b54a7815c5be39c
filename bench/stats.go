package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none) without reordering xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLevels are the percentiles a tail may be reported at, in per mille.
var tailLevels = []int{999, 990, 900, 500}

// tail returns the highest percentile of tailLevels that has at least ten
// samples beyond it, and that percentile's level. With 1000 to 9999
// samples this is the 99th percentile.
func tail(xs []float64) (value, level float64) {
	for _, l := range tailLevels {
		if len(xs)*(1000-l) >= 10*1000 {
			return quantile(xs, float64(l)/1000), float64(l) / 1000
		}
	}
	return quantile(xs, 0.5), 0.5
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample holds the cumulative runtime counters the traced runs
// difference: GC and busy (total minus idle) CPU time, bytes allocated.
type runtimeSample struct {
	gcCPU, busyCPU, allocBytes float64
}

// readRuntime samples the runtime's cumulative CPU and allocation counters.
func readRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(ss[0]), busyCPU: val(ss[1]) - val(ss[2]), allocBytes: val(ss[3])}
}

// setRuntimeMetrics reports the GC share of busy CPU time and the
// megabytes allocated between two samples.
func setRuntimeMetrics(r *report, before, after runtimeSample) {
	share := 0.0
	if d := after.busyCPU - before.busyCPU; d > 0 {
		share = (after.gcCPU - before.gcCPU) / d
	}
	r.set("runtime.gc.cpu_share", share, "fraction")
	r.set("runtime.alloc_mb", (after.allocBytes-before.allocBytes)/1e6, "MB")
}

// settle collects garbage and returns freed memory to the OS, so every
// timed phase starts from the same heap state whatever ran before it.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}
