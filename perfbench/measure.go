package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Parent indexes the enclosing span (-1 at top level); Iter is the
// repetition the call belongs to (-1 for one-off probes).
type span struct {
	Name    string  `json:"name"`
	Phase   string  `json:"phase,omitempty"`
	Iter    int     `json:"iter"`
	Parent  int     `json:"parent"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// tracer times every layer call the benchmark makes. When on, it also
// keeps each call as a span and runs it under a pprof "phase" label, so
// CPU profile samples can be split by phase; when off it only reads the
// clock.
type tracer struct {
	on    bool
	iter  int
	t0    time.Time
	spans []span
	open  []int // indexes of the spans currently running, innermost last
}

func newTracer(on bool) *tracer { return &tracer{on: on, iter: -1, t0: time.Now()} }

// do runs fn as the span name and returns its wall time. An empty phase
// inherits the enclosing label.
func (t *tracer) do(name, phase string, fn func()) time.Duration {
	start := time.Now()
	if !t.on {
		fn()
		return time.Since(start)
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Phase: phase, Iter: t.iter, Parent: parent,
		StartUs: float64(start.Sub(t.t0).Nanoseconds()) / 1e3})
	t.open = append(t.open, idx)
	if phase != "" {
		pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
	} else {
		fn()
	}
	d := time.Since(start)
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].DurUs = float64(d.Nanoseconds()) / 1e3
	return d
}

// heapPeak samples the bytes held by heap objects until stopped and
// reports the largest value seen. It reads runtime/metrics, which does
// not stop the world, every millisecond.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapObjects}}
		peak := readHeap(s)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				if v := readHeap(s); v > peak {
					peak = v
				}
				h.done <- peak
				return
			case <-tick.C:
				if v := readHeap(s); v > peak {
					peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends the sampler, waits for it to exit and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// allocs is the cumulative heap allocation counters.
type allocs struct{ bytes, count uint64 }

func readAllocs() allocs {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocs{m.TotalAlloc, m.Mallocs}
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		d := m - float64(j)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
