package machine

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/kendo"
	"repro/internal/telemetry"
)

// twoWorkers is a small program with enough scheduling points for a
// Picker to be consulted many times: two children store and synchronize
// while the root joins them.
func twoWorkers(m *Machine) func(*Thread) {
	a := m.AllocShared(16, 8)
	l := m.NewMutex()
	return func(th *Thread) {
		var kids []*Thread
		for i := 0; i < 2; i++ {
			kids = append(kids, th.Spawn(func(c *Thread) {
				for j := 0; j < 20; j++ {
					c.Lock(l)
					c.StoreU64(a, uint64(j))
					c.Unlock(l)
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	}
}

func expectSchedulerError(t *testing.T, err error) {
	t.Helper()
	var merr *MachineError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v (%T), want *MachineError", err, err)
	}
	if merr.Kind != ErrScheduler {
		t.Errorf("Kind = %v, want ErrScheduler (err: %v)", merr.Kind, err)
	}
	if merr.TID != -1 {
		t.Errorf("TID = %d, want -1: a scheduler failure is not charged to a thread", merr.TID)
	}
	if merr.Dump == nil || len(merr.Dump.Threads) == 0 {
		t.Error("scheduler error carries no diagnostic dump")
	}
}

func TestPickerPanicIsSchedulerError(t *testing.T) {
	// The Picker panics mid-run, when the scheduler is running on a
	// yielding thread's goroutine: the failure must surface as
	// ErrScheduler, not as a panic of that thread.
	calls := 0
	m := New(Config{Seed: 1, Picker: func(r []*Thread) int {
		calls++
		if calls == 10 {
			panic("picker bug")
		}
		return 0
	}})
	err := m.Run(twoWorkers(m))
	expectSchedulerError(t, err)
	if merr := err.(*MachineError); merr.PanicValue != "picker bug" {
		t.Errorf("PanicValue = %v, want the Picker's panic value", merr.PanicValue)
	}
	if calls != 10 {
		t.Errorf("Picker consulted %d times, want 10: after a failure the unwind must not consult it", calls)
	}
}

func TestPickerOutOfRangeIsSchedulerError(t *testing.T) {
	calls := 0
	m := New(Config{Seed: 1, Picker: func(r []*Thread) int {
		calls++
		if calls == 7 {
			return len(r)
		}
		return len(r) - 1
	}})
	expectSchedulerError(t, m.Run(twoWorkers(m)))
}

// waitGoroutines waits until the goroutine count is back to base. A thread
// goroutine exits a few instructions after it hands the processor on, so
// the count settles shortly after Run returns, not necessarily before.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, want %d: thread goroutines leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		prog func(m *Machine) func(*Thread)
		ok   func(error) bool
	}{
		{"completes", Config{Seed: 1}, twoWorkers, func(err error) bool { return err == nil }},
		{"race", Config{Seed: 4, Detector: &stopDetector{k: 10}}, twoWorkers,
			func(err error) bool { var re *RaceError; return errors.As(err, &re) }},
		{"deadlock", Config{Seed: 2, DetSync: true}, func(m *Machine) func(*Thread) {
			l, c := m.NewMutex(), m.NewCond()
			return func(th *Thread) {
				w := th.Spawn(func(w *Thread) {
					w.Lock(l)
					w.CondWait(c, l) // never signalled
					w.Unlock(l)
				})
				th.Spawn(func(x *Thread) { x.Work(3) })
				th.Join(w)
			}
		}, func(err error) bool { var dl *DeadlockError; return errors.As(err, &dl) }},
		{"livelock", Config{Seed: 5, DetSync: true, MaxSteps: 500}, func(m *Machine) func(*Thread) {
			return func(th *Thread) {
				th.Spawn(func(x *Thread) {
					for {
						x.Work(1)
					}
				})
				for {
					th.Work(10)
				}
			}
		}, func(err error) bool { var ll *LivelockError; return errors.As(err, &ll) }},
		{"crash", Config{Seed: 3, Injector: &stubInjector{crashTID: 1, crashAtCounter: 5}}, func(m *Machine) func(*Thread) {
			return func(th *Thread) {
				c := th.Spawn(func(c *Thread) { c.Work(20) }) // dies at counter 5
				th.Work(20)
				th.Join(c)
			}
		}, func(err error) bool { return err == nil }},
		{"scheduler panic", Config{Seed: 1, Picker: func(r []*Thread) int {
			if len(r) > 1 {
				panic("picker bug")
			}
			return 0
		}}, twoWorkers, func(err error) bool {
			var merr *MachineError
			return errors.As(err, &merr) && merr.Kind == ErrScheduler
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := New(tc.cfg)
			err := m.Run(tc.prog(m))
			if !tc.ok(err) {
				t.Fatalf("unexpected outcome: %v", err)
			}
			waitGoroutines(t, base)
		})
	}
}

// detWaitMachine builds a deterministic-sync machine whose threads sit in
// the scheduler states pick sees mid-run — Kendo waiters, runnable and
// blocked threads — without starting any goroutine.
func detWaitMachine(t *testing.T, reg *telemetry.Registry) (*Machine, []threadState) {
	t.Helper()
	m := New(Config{Seed: 9, DetSync: true, Metrics: reg})
	states := []threadState{stateDetWait, stateRunnable, stateDetWait, stateBlocked, stateDetWait, stateRunnable}
	counters := []uint64{7, 9, 3, 1, 3, 12}
	for i := range states {
		th, err := m.newThread(func(*Thread) {})
		if err != nil {
			t.Fatal(err)
		}
		th.state, th.DetCounter = states[i], counters[i]
	}
	return m, states
}

func TestPickDoesNotAllocate(t *testing.T) {
	for _, metrics := range []bool{false, true} {
		var reg *telemetry.Registry
		if metrics {
			reg = telemetry.NewRegistry()
		}
		m, states := detWaitMachine(t, reg)
		allocs := testing.AllocsPerRun(200, func() {
			for i, th := range m.threads {
				th.state = states[i]
			}
			if th, _ := m.pick(); th == nil {
				t.Fatal("pick found nothing runnable")
			}
		})
		if allocs != 0 {
			t.Errorf("metrics=%v: pick allocates %.1f times per call, want 0", metrics, allocs)
		}
		if m.threads[2].state != stateRunnable || m.threads[4].state != stateDetWait {
			t.Errorf("metrics=%v: want only tid 2 (least counter, least id among ties) woken; states %v %v",
				metrics, m.threads[2].state, m.threads[4].state)
		}
		rt := (*kendoRT)(m.threads[2])
		if allocs := testing.AllocsPerRun(200, func() { kendo.IsTurn(rt, 2) }); allocs != 0 {
			t.Errorf("metrics=%v: a Kendo turn check allocates %.1f times, want 0", metrics, allocs)
		}
	}
}

// TestTurnHolderMatchesIsTurn checks the one-pass holder rule against
// kendo.IsTurn and kendo.QueueDepth on random thread states: a Kendo
// waiter wakes iff it holds the turn, and the observed queue depth is
// every other participant.
func TestTurnHolderMatchesIsTurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	all := []threadState{stateRunnable, stateBlocked, stateParked, stateDetWait, stateFinished}
	for trial := 0; trial < 500; trial++ {
		reg := telemetry.NewRegistry()
		m := New(Config{DetSync: true, Metrics: reg})
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			th, err := m.newThread(func(*Thread) {})
			if err != nil {
				t.Fatal(err)
			}
			th.state = all[rng.Intn(len(all))]
			th.DetCounter = uint64(rng.Intn(4))
		}
		rt := (*kendoRT)(m.threads[0])
		before := make([]threadState, n)
		want := make([]bool, n)
		for i, th := range m.threads {
			before[i] = th.state
			want[i] = th.state == stateDetWait && kendo.IsTurn(rt, i)
		}
		depth := kendo.QueueDepth(rt)
		m.pick()
		for i, th := range m.threads {
			if before[i] != stateDetWait {
				continue
			}
			if woke := th.state == stateRunnable; woke != want[i] {
				t.Fatalf("trial %d tid %d: woken=%v, kendo.IsTurn=%v", trial, i, woke, want[i])
			}
		}
		h := reg.Snapshot().Histograms["kendo.queue_depth"]
		if h.Count != 1 || h.Sum != float64(depth) {
			t.Fatalf("trial %d: observed queue depth %+v, want one observation of %d", trial, h, depth)
		}
	}
}
