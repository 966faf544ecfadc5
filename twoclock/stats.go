package main

import (
	"bufio"
	"crypto/sha256"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tail is the latency tail: p95 by nearest rank when at least ten
// samples lie above it (200 samples or more), otherwise the highest
// percentile with ten samples above it, and the median of a sample too
// small to have one. xs is sorted in place.
func tail(xs []float64) float64 {
	n := len(xs)
	if n <= 10 {
		return median(xs)
	}
	sort.Float64s(xs)
	return xs[min(int(math.Ceil(0.95*float64(n)))-1, n-11)]
}

// median is the midpoint of xs (the mean of the middle two for an even
// count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// geomean is the geometric mean of strictly positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; on a
// system without /proc it falls back to the Go runtime's mapped memory.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}

// goCounters is a snapshot of the Go runtime's allocation and GC CPU
// counters; the difference of two snapshots covers one window.
type goCounters struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func readGoCounters() goCounters {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c := goCounters{allocBytes: st.TotalAlloc, allocs: st.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		c.totalCPU = samples[1].Value.Float64()
	}
	return c
}

// goWindow turns two snapshots into the per-operation runtime metrics.
func goWindow(before, after goCounters, ops int64, put func(string, float64, string)) {
	put("go.alloc_bytes_per_op", ratio(float64(after.allocBytes-before.allocBytes), float64(ops)), "B")
	put("go.allocs_per_op", ratio(float64(after.allocs-before.allocs), float64(ops)), "count")
	put("go.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio")
}

// hostMillis times a fixed computation that calls no code of the
// repository: SHA-256 over 256 MB, from a 1 MB buffer. Recorded in the
// detail, it tells a slower host apart from a slower program when
// figures move between runs.
func hostMillis() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	h := sha256.New()
	for i := 0; i < 256; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return ms(time.Since(start))
}
