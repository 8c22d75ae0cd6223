package core

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/oracle"
	"repro/internal/progen"
	"repro/internal/vclock"
)

// run executes root on a fresh machine with a CLEAN detector.
func run(seed int64, cfg Config, build func(m *machine.Machine) func(*machine.Thread)) (*machine.Machine, *Detector, error) {
	det := New(cfg)
	m := machine.New(machine.Config{Seed: seed, Detector: det})
	root := build(m)
	return m, det, m.Run(root)
}

func raceKind(t *testing.T, err error) machine.RaceKind {
	t.Helper()
	var re *machine.RaceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RaceError", err)
	}
	return re.Kind
}

func TestWAWRaceAlwaysDetected(t *testing.T) {
	// Two unordered writes race regardless of order, so every schedule
	// must end in a WAW exception.
	for seed := int64(0); seed < 20; seed++ {
		_, _, err := run(seed, Config{}, func(m *machine.Machine) func(*machine.Thread) {
			a := m.AllocShared(8, 8)
			return func(th *machine.Thread) {
				c := th.Spawn(func(c *machine.Thread) {
					c.StoreU64(a, 1)
				})
				th.StoreU64(a, 2)
				th.Join(c)
			}
		})
		if kind := raceKind(t, err); kind != machine.WAW {
			t.Fatalf("seed %d: kind = %v, want WAW", seed, kind)
		}
	}
}

func TestRAWOrWARTiming(t *testing.T) {
	// An unordered write/read pair resolves as RAW (exception) or WAR
	// (completes) depending on timing — the choice described in §3.1.
	// Across seeds both outcomes must appear, and every exception must
	// be RAW.
	var raws, completions int
	for seed := int64(0); seed < 40; seed++ {
		_, _, err := run(seed, Config{}, func(m *machine.Machine) func(*machine.Thread) {
			a := m.AllocShared(8, 8)
			return func(th *machine.Thread) {
				c := th.Spawn(func(c *machine.Thread) {
					c.Work(3)
					c.LoadU64(a)
				})
				th.Work(3)
				th.StoreU64(a, 7)
				th.Join(c)
			}
		})
		if err == nil {
			completions++
			continue
		}
		if kind := raceKind(t, err); kind != machine.RAW {
			t.Fatalf("seed %d: kind = %v, want RAW", seed, kind)
		}
		raws++
	}
	if raws == 0 || completions == 0 {
		t.Fatalf("want both outcomes across seeds, got %d RAW exceptions and %d completions", raws, completions)
	}
}

func TestNoFalsePositiveWithLocks(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		_, _, err := run(seed, Config{}, func(m *machine.Machine) func(*machine.Thread) {
			a := m.AllocShared(8, 8)
			l := m.NewMutex()
			return func(th *machine.Thread) {
				var kids []*machine.Thread
				for i := 0; i < 3; i++ {
					kids = append(kids, th.Spawn(func(c *machine.Thread) {
						for j := 0; j < 10; j++ {
							c.Lock(l)
							c.StoreU64(a, c.LoadU64(a)+1)
							c.Unlock(l)
						}
					}))
				}
				for _, k := range kids {
					th.Join(k)
				}
			}
		})
		if err != nil {
			t.Fatalf("seed %d: false positive: %v", seed, err)
		}
	}
}

func TestNoFalsePositiveWithBarriers(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		_, _, err := run(seed, Config{}, func(m *machine.Machine) func(*machine.Thread) {
			const n = 4
			arr := m.AllocShared(8*n, 8)
			b := m.NewBarrier(n)
			return func(th *machine.Thread) {
				var kids []*machine.Thread
				for i := 1; i < n; i++ {
					idx := i
					kids = append(kids, th.Spawn(func(c *machine.Thread) {
						for ph := 0; ph < 3; ph++ {
							c.StoreU64(arr+uint64(8*idx), uint64(ph))
							c.BarrierWait(b)
							// Read a neighbour's slot — safe only via the barrier.
							c.LoadU64(arr + uint64(8*((idx+1)%n)))
							c.BarrierWait(b)
						}
					}))
				}
				for ph := 0; ph < 3; ph++ {
					th.StoreU64(arr, uint64(ph))
					th.BarrierWait(b)
					th.LoadU64(arr + 8)
					th.BarrierWait(b)
				}
				for _, k := range kids {
					th.Join(k)
				}
			}
		})
		if err != nil {
			t.Fatalf("seed %d: false positive: %v", seed, err)
		}
	}
}

func TestReadSharingNeverRaces(t *testing.T) {
	// Data initialized before spawn and then only read is race-free.
	for seed := int64(0); seed < 10; seed++ {
		_, _, err := run(seed, Config{}, func(m *machine.Machine) func(*machine.Thread) {
			a := m.AllocShared(64, 8)
			return func(th *machine.Thread) {
				for i := 0; i < 8; i++ {
					th.StoreU64(a+uint64(8*i), uint64(i*i))
				}
				var kids []*machine.Thread
				for i := 0; i < 3; i++ {
					kids = append(kids, th.Spawn(func(c *machine.Thread) {
						for j := 0; j < 8; j++ {
							c.LoadU64(a + uint64(8*j))
						}
					}))
				}
				for _, k := range kids {
					th.Join(k)
				}
			}
		})
		if err != nil {
			t.Fatalf("seed %d: false positive on read sharing: %v", seed, err)
		}
	}
}

func TestWARRaceNotDetected(t *testing.T) {
	// Force the WAR order with explicit work imbalance: the reader runs
	// immediately, the writer is delayed past it. CLEAN must let this
	// complete (§3.1 — WAR is deliberately undetected).
	warSeen := false
	for seed := int64(0); seed < 40 && !warSeen; seed++ {
		o := oracle.New(oracle.AllRaces)
		p := buildReadThenWrite()
		mo := machine.New(machine.Config{Seed: seed, Detector: o})
		rootO := p(mo)
		errO := mo.Run(rootO)
		var re *machine.RaceError
		if errors.As(errO, &re) && re.Kind == machine.WAR {
			// This schedule has a WAR race; CLEAN must complete it.
			d := New(Config{})
			mc := machine.New(machine.Config{Seed: seed, Detector: d})
			rootC := p(mc)
			if err := mc.Run(rootC); err != nil {
				t.Fatalf("seed %d: CLEAN raised %v on a WAR-only schedule", seed, err)
			}
			warSeen = true
		}
	}
	if !warSeen {
		t.Fatal("no schedule produced a WAR race; test is vacuous")
	}
}

// buildReadThenWrite returns a program with exactly one unordered
// read/write pair on one location.
func buildReadThenWrite() func(m *machine.Machine) func(*machine.Thread) {
	return func(m *machine.Machine) func(*machine.Thread) {
		a := m.AllocShared(8, 8)
		return func(th *machine.Thread) {
			c := th.Spawn(func(c *machine.Thread) {
				c.LoadU64(a)
			})
			th.Work(5)
			th.StoreU64(a, 9)
			th.Join(c)
		}
	}
}

func TestFig1bTornWriteNeverObservable(t *testing.T) {
	// The Fig. 1b scenario: one thread stores a 64-bit value as two
	// 32-bit halves, another stores a different full value. In every
	// completed execution the final value must be one of the two pure
	// values, never the interleaved "half-half" one; interleavings that
	// would produce it must die with a WAW exception first.
	for seed := int64(0); seed < 40; seed++ {
		var final uint64
		_, _, err := run(seed, Config{}, func(m *machine.Machine) func(*machine.Thread) {
			x := m.AllocShared(8, 8)
			return func(th *machine.Thread) {
				c := th.Spawn(func(c *machine.Thread) {
					// x = 0x1_00000000, written in halves.
					c.StoreU32(x+4, 0x1)
					c.StoreU32(x, 0x0)
				})
				th.StoreU32(x+4, 0x0) // x = 0x1, also in halves
				th.StoreU32(x, 0x1)
				th.Join(c)
				final = th.LoadU64(x)
			}
		})
		if err != nil {
			if kind := raceKind(t, err); kind != machine.WAW {
				t.Fatalf("seed %d: kind %v, want WAW", seed, kind)
			}
			continue
		}
		if final != 0x100000000 && final != 0x1 {
			t.Fatalf("seed %d: observed out-of-thin-air value %#x", seed, final)
		}
	}
}

func TestDetectionSurvivesRolloverWithinPhase(t *testing.T) {
	// After a rollover reset, races whose accesses both occur after the
	// reset must still be detected (the paper only concedes races that
	// straddle a reset, §4.5).
	layout := vclock.Layout{TIDBits: 8, ClockBits: 4}
	det := New(Config{Layout: layout})
	m := machine.New(machine.Config{Seed: 1, Layout: layout, Detector: det})
	a := m.AllocShared(8, 8)
	l := m.NewMutex()
	err := m.Run(func(th *machine.Thread) {
		// Phase 1: heavy synchronization to force resets.
		c := th.Spawn(func(c *machine.Thread) {
			for i := 0; i < 30; i++ {
				c.Lock(l)
				c.Unlock(l)
			}
		})
		for i := 0; i < 30; i++ {
			th.Lock(l)
			th.Unlock(l)
		}
		th.Join(c)
		// Phase 2 (entirely after any reset): an unordered WAW.
		c2 := th.Spawn(func(c *machine.Thread) { c.StoreU64(a, 1) })
		th.StoreU64(a, 2)
		th.Join(c2)
	})
	if m.Stats().Rollovers == 0 {
		t.Fatal("test needs at least one rollover")
	}
	if kind := raceKind(t, err); kind != machine.WAW {
		t.Fatalf("kind = %v, want WAW after reset", kind)
	}
}

func TestMultibyteTogglesAgree(t *testing.T) {
	// The §4.4 vectorization is an optimization: for identical programs
	// and schedules, detection outcomes must be identical with and
	// without it.
	for gen := int64(0); gen < 30; gen++ {
		p := progen.Generate(progen.DefaultConfig(gen))
		for sched := int64(0); sched < 4; sched++ {
			_, errOn := p.Run(sched, New(Config{}), false)
			_, errOff := p.Run(sched, New(Config{DisableMultibyte: true}), false)
			if (errOn == nil) != (errOff == nil) {
				t.Fatalf("gen %d sched %d: multibyte on=%v off=%v", gen, sched, errOn, errOff)
			}
			var a, b *machine.RaceError
			if errors.As(errOn, &a) && errors.As(errOff, &b) {
				if a.Kind != b.Kind || a.Addr != b.Addr || a.TID != b.TID {
					t.Fatalf("gen %d sched %d: diverging reports %v vs %v", gen, sched, a, b)
				}
			}
		}
	}
}

func TestAgreesWithOracleOnRandomPrograms(t *testing.T) {
	// Cross-validation against the reference happens-before detector:
	// on identical schedules CLEAN must stop exactly when the oracle's
	// WAW/RAW-only mode stops, with the same race kind and location.
	var stops, completes int
	for gen := int64(0); gen < 60; gen++ {
		p := progen.Generate(progen.DefaultConfig(gen))
		for sched := int64(0); sched < 5; sched++ {
			_, errClean := p.Run(sched, New(Config{}), false)
			_, errOracle := p.Run(sched, oracle.New(oracle.WAWRAW), false)
			if (errClean == nil) != (errOracle == nil) {
				t.Fatalf("gen %d sched %d: clean=%v oracle=%v", gen, sched, errClean, errOracle)
			}
			if errClean == nil {
				completes++
				continue
			}
			stops++
			var c, o *machine.RaceError
			if !errors.As(errClean, &c) || !errors.As(errOracle, &o) {
				t.Fatalf("gen %d sched %d: non-race errors clean=%v oracle=%v", gen, sched, errClean, errOracle)
			}
			if c.Kind != o.Kind || c.Addr != o.Addr || c.TID != o.TID {
				t.Fatalf("gen %d sched %d: clean %v vs oracle %v", gen, sched, c, o)
			}
		}
	}
	if stops == 0 || completes == 0 {
		t.Fatalf("cross-check vacuous: %d stops, %d completions", stops, completes)
	}
}

func TestStatsAccounting(t *testing.T) {
	_, det, err := run(0, Config{}, func(m *machine.Machine) func(*machine.Thread) {
		a := m.AllocShared(16, 8)
		return func(th *machine.Thread) {
			th.StoreU64(a, 1) // 8-byte write: 1 vector check, 8 updates
			th.LoadU64(a)     // 8-byte read: 1 vector check
			th.StoreU64(a, 1) // same-epoch write: update skipped
			th.StoreU8(a, 2)  // 1-byte write: same thread, same clock — skipped too
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s := det.Stats()
	if s.Accesses != 4 {
		t.Errorf("Accesses = %d, want 4", s.Accesses)
	}
	if s.MultibyteAccesses != 3 {
		t.Errorf("MultibyteAccesses = %d, want 3", s.MultibyteAccesses)
	}
	if s.MultibyteSameEpoch != 3 {
		t.Errorf("MultibyteSameEpoch = %d, want 3", s.MultibyteSameEpoch)
	}
	if s.EpochUpdates != 8 { // only the first store writes epochs
		t.Errorf("EpochUpdates = %d, want 8", s.EpochUpdates)
	}
	if s.SameEpochSkips != 2 { // the repeat store and the byte store
		t.Errorf("SameEpochSkips = %d, want 2", s.SameEpochSkips)
	}
}

func TestVectorizationReducesByteChecks(t *testing.T) {
	prog := func(m *machine.Machine) func(*machine.Thread) {
		a := m.AllocShared(1024, 8)
		return func(th *machine.Thread) {
			for i := 0; i < 128; i++ {
				th.StoreU64(a+uint64(8*i), uint64(i))
			}
			for i := 0; i < 128; i++ {
				th.LoadU64(a + uint64(8*i))
			}
		}
	}
	_, fast, err := run(0, Config{}, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, slow, err := run(0, Config{DisableMultibyte: true}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats().ByteChecks*4 > slow.Stats().ByteChecks {
		t.Errorf("vectorization saved too little: %d vs %d byte checks",
			fast.Stats().ByteChecks, slow.Stats().ByteChecks)
	}
}

func TestMetadataFootprintProportionalToAccessedData(t *testing.T) {
	_, det, err := run(0, Config{}, func(m *machine.Machine) func(*machine.Thread) {
		// Allocate far more than is touched.
		a := m.AllocShared(1<<20, 64)
		return func(th *machine.Thread) {
			th.StoreU64(a, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages := det.Epochs().MappedPages(); pages != 1 {
		t.Errorf("MappedPages = %d, want 1 (only touched data pays)", pages)
	}
}

// TestFootprintSurvivesRelease: a finished run's footprint stays readable
// after ReleaseMetadata recycles its pages, so callers may report it
// after the run path has cleaned up.
func TestFootprintSurvivesRelease(t *testing.T) {
	_, det, err := run(0, Config{}, func(m *machine.Machine) func(*machine.Thread) {
		a := m.AllocShared(1<<16, 64)
		return func(th *machine.Thread) {
			th.StoreU64(a, 1)
			th.StoreU8(a+1<<12, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	before := det.Footprint()
	if before.MappedPages == 0 {
		t.Fatal("run mapped no shadow pages")
	}
	det.ReleaseMetadata()
	if got := det.Epochs().MappedPages(); got != 0 {
		t.Errorf("MappedPages after release = %d, want 0", got)
	}
	if got := det.Footprint(); got != before {
		t.Errorf("Footprint after release = %+v, want the end-of-run %+v", got, before)
	}
}
