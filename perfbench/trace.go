package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

// span is one call the benchmark made into a layer. Spans of one kernel
// run, one prediction or one service job share a group id.
type span struct {
	id, parent, group int
	name              string
	start, end        time.Time
}

// tracer keeps the traced run's spans in memory; write puts them out
// when the run ends. It is safe for concurrent use.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	groups int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// group returns a fresh group id.
func (t *tracer) group() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.groups++
	return t.groups
}

// add records a finished span and returns its id (ids start at 1; parent
// 0 means a root span).
func (t *tracer) add(name string, parent, group int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, group: group, name: name, start: start, end: end})
	return len(t.spans)
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent, group int) int {
	now := time.Now()
	return t.add(name, parent, group, now, now)
}

func (t *tracer) close(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: each span's duration minus the part of it that its child
// spans cover.
func (t *tracer) selfTimes() map[string][2]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string][2]time.Duration)
	for _, s := range t.spans {
		total := s.end.Sub(s.start)
		self := total - covered(s, children[s.id])
		acc := out[s.name]
		acc[0] += total
		acc[1] += self
		out[s.name] = acc
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var sum time.Duration
	var curStart, curEnd time.Time
	open := false
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if !b.After(a) {
			continue
		}
		if open && !a.After(curEnd) {
			if b.After(curEnd) {
				curEnd = b
			}
			continue
		}
		if open {
			sum += curEnd.Sub(curStart)
		}
		curStart, curEnd, open = a, b, true
	}
	if open {
		sum += curEnd.Sub(curStart)
	}
	return sum
}

// selfTimeTable renders selfTimes as text lines.
func (t *tracer) selfTimeTable() string {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %12s\n", "span", "total_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %12.4f %12.4f\n", n, st[n][0].Seconds(), st[n][1].Seconds())
	}
	return b.String()
}

// write stores the spans as Chrome trace-event JSON (viewable in
// Perfetto) under dir/spans and returns the file's path. Each group gets
// its own track; the parent id rides in the event args.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.group,
			Args: map[string]int{"id": s.id, "parent": s.parent, "group": s.group},
		})
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": events})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// checkSampleEvery is the timing decorator's sampling period: one access
// check in this many is timed, so the clock reads stay a small share of
// the check they measure.
const checkSampleEvery = 64

// checkTimer accumulates the timing decorator's samples across the
// detectors of many runs.
type checkTimer struct {
	calls, sampled uint64
	ns             int64
}

// perCheckNs is the mean sampled check time less the cost of the clock
// reads around it.
func (c *checkTimer) perCheckNs() float64 {
	if c.sampled == 0 {
		return 0
	}
	ns := float64(c.ns)/float64(c.sampled) - clockOverheadNs()
	if ns < 0 {
		ns = 0
	}
	return ns
}

// timedDetector decorates the CLEAN detector: it counts every access
// check and times a sample of them. The machine serializes its threads,
// so the counters need no locking.
type timedDetector struct {
	inner *core.Detector
	t     *checkTimer
}

func newTimedDetector(t *checkTimer) *timedDetector {
	return &timedDetector{inner: core.New(core.Config{}), t: t}
}

func (d *timedDetector) Name() string { return d.inner.Name() }

func (d *timedDetector) OnAccess(th *machine.Thread, addr uint64, size int, write bool) error {
	d.t.calls++
	if d.t.calls%checkSampleEvery != 0 {
		return d.inner.OnAccess(th, addr, size, write)
	}
	start := time.Now()
	err := d.inner.OnAccess(th, addr, size, write)
	d.t.ns += int64(time.Since(start))
	d.t.sampled++
	return err
}

func (d *timedDetector) Reset() { d.inner.Reset() }

// ReleaseMetadata forwards the machine's page-recycling hook.
func (d *timedDetector) ReleaseMetadata() { d.inner.ReleaseMetadata() }

var (
	clockOnce sync.Once
	clockNs   float64
)

// clockOverheadNs measures, once, what a pair of clock reads around an
// empty region costs.
func clockOverheadNs() float64 {
	clockOnce.Do(func() {
		const n = 200000
		var sum time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			sum += time.Since(start)
		}
		clockNs = float64(sum) / n
	})
	return clockNs
}
