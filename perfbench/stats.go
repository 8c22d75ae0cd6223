package main

import (
	"math"
	"runtime"
	"sort"
)

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, 50)
}

// percentileSorted returns the p-th percentile of ascending xs by linear
// interpolation between the closest ranks; 0 for an empty slice.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// percentile is percentileSorted over an unsorted copy of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish ends a pass that started at mark: it keeps the pass's wall time
// and the share of it the vCPUs kept, and turns its times into kept
// seconds (see steal.go).
func (p *passResult) finish(mark stealMark) {
	p.plainWall, p.kept = mark.kept()
	p.wall = p.plainWall * p.kept
	for i := range p.latencies {
		p.latencies[i] *= p.kept
	}
}

// itemTimes collects, per item of an input list, its latencies over the
// passes of a run.
type itemTimes [][]float64

func (t *itemTimes) add(lats []float64) {
	for len(*t) < len(lats) {
		*t = append(*t, nil)
	}
	for i, l := range lats {
		(*t)[i] = append((*t)[i], l)
	}
}

// typical sums each item's median latency: the time of a typical pass of
// items run one after another.
func (t itemTimes) typical() float64 {
	sum := 0.0
	for _, xs := range t {
		sum += median(xs)
	}
	return sum
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// untracedPasses are a traced run's untraced passes: their item times,
// and what each allocated and paused for garbage collection.
type untracedPasses struct {
	times           itemTimes
	allocs, gcPause []float64
}

// run makes one untraced pass of inst and hands it to record.
func (u *untracedPasses) run(inst instance, seed int64, record func(passResult)) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := inst.pass(seed)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	record(p)
	u.times.add(p.latencies)
	u.allocs = append(u.allocs, float64(after.TotalAlloc-before.TotalAlloc))
	u.gcPause = append(u.gcPause, float64(after.PauseTotalNs-before.PauseTotalNs)/1e9)
	return nil
}

// addMetrics adds the runtime.* metrics and the tracing overhead: the
// traced passes' item times against the untraced ones.
func (u *untracedPasses) addMetrics(m map[string]float64, traced itemTimes) map[string]float64 {
	m["runtime.alloc_bytes_per_pass"] = median(u.allocs)
	m["runtime.gc_pause_s"] = median(u.gcPause)
	m["trace.overhead_frac"] = ratio(traced.typical(), u.times.typical()) - 1
	return m
}
