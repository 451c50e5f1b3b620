package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for none.
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

// tailQuantile returns the highest of p90, p99 and p999 that has at least
// ten samples beyond it, and false when even p90 has fewer.
func tailQuantile(xs []float64) (string, float64, bool) {
	best, name, ok := 0.0, "", false
	for _, p := range []struct {
		name string
		q    float64
	}{{"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999}} {
		if float64(len(xs))*(1-p.q) >= 10 {
			best, name, ok = quantile(xs, p.q), p.name, true
		}
	}
	return name, best, ok
}

// closedLoop calls step(0), step(1), ... one at a time, each after the
// previous returned, until one more step as long as the last would overrun
// o.seconds; it makes at least o.minIters steps and stops at the first
// error.
func closedLoop(o options, step func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= o.minIters && time.Since(start)+last > o.seconds {
			return nil
		}
		t := time.Now()
		if err := step(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// runtimeSnap is the process-wide allocation and GC CPU state at a moment.
type runtimeSnap struct {
	mallocs, allocBytes uint64
	gcCPU, usedCPU      float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func snapRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeSnap{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		usedCPU:    s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// runtimeDelta is the allocation and GC cost between two snapshots.
type runtimeDelta struct {
	mallocs, allocBytes float64
	gcCPUFrac           float64
}

func deltaRuntime(a, b runtimeSnap) runtimeDelta {
	d := runtimeDelta{
		mallocs:    float64(b.mallocs - a.mallocs),
		allocBytes: float64(b.allocBytes - a.allocBytes),
	}
	if used := b.usedCPU - a.usedCPU; used > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / used
	}
	return d
}

// heapWatch samples the live Go heap — the bytes the last collection
// marked reachable — every 5ms and keeps the peak of each interval between
// take calls. Garbage between collections is left out (it scales with
// GOGC, not with the program), and so is the runtime's 4 MiB minimum heap
// goal.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak atomic.Uint64
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.peak.Store(liveHeap())
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			v := liveHeap()
			for {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
		}
	}()
	return h
}

// take returns the peak in MiB since the previous take (or the start) and
// begins the next interval.
func (h *heapWatch) take() float64 {
	cur := liveHeap()
	return float64(max(h.peak.Swap(cur), cur)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapWatch) close() {
	close(h.stop)
	h.done.Wait()
}
