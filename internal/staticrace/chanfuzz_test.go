// Soundness of the channel path (classifyChan), cross-validated over
// generated channel programs. progen makes no channels, so the fuzz in
// soundness_test.go never reaches the must-happen-before closure or the
// witness-schedule machine runs; this generator does.
package staticrace_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/machine"
	"repro/internal/prog"
	"repro/internal/staticrace"
)

// chanProgram draws a small channel program from seed: 2–4 workers, 0–2
// locks, 1–2 channels of capacity 0–2, a 2-byte region, and 2–4 ops per
// worker among read, write, lock, unlock, send and recv. Locks nest in increasing id
// order and are all released; channel traffic is not balanced, so some
// programs deadlock, as real ones can.
func chanProgram(seed int64) *prog.Program {
	rng := rand.New(rand.NewSource(seed))
	p := &prog.Program{Region: 2, Locks: rng.Intn(3)}
	for c := 1 + rng.Intn(2); c > 0; c-- {
		p.Chans = append(p.Chans, rng.Intn(3))
	}
	for w := 2 + rng.Intn(3); w > 0; w-- {
		var ops []prog.Op
		var held []int
		nextLock := func() int {
			if len(held) == 0 {
				return 0
			}
			return held[len(held)-1] + 1
		}
		for n := 2 + rng.Intn(3); n > 0; n-- {
			switch r := rng.Intn(10); {
			case r < 5:
				size := 1 + rng.Intn(2)
				o := prog.Op{Kind: prog.Read, Off: uint64(rng.Intn(p.Region - size + 1)), Size: size}
				if rng.Intn(2) == 0 {
					o.Kind = prog.Write
				}
				ops = append(ops, o)
			case r < 6 && nextLock() < p.Locks:
				l := nextLock() + rng.Intn(p.Locks-nextLock())
				ops = append(ops, prog.Op{Kind: prog.Lock, Lock: l})
				held = append(held, l)
			case r < 7 && len(held) > 0:
				ops = append(ops, prog.Op{Kind: prog.Unlock, Lock: held[len(held)-1]})
				held = held[:len(held)-1]
			case r < 9:
				ops = append(ops, prog.Op{Kind: prog.Send, Chan: rng.Intn(len(p.Chans))})
			default:
				ops = append(ops, prog.Op{Kind: prog.Recv, Chan: rng.Intn(len(p.Chans))})
			}
		}
		for len(held) > 0 {
			ops = append(ops, prog.Op{Kind: prog.Unlock, Lock: held[len(held)-1]})
			held = held[:len(held)-1]
		}
		p.Threads = append(p.Threads, ops)
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// checkMustRaceWitnesses replays the witness schedule of every MustRace
// pair under the reference oracle and reports any that does not raise.
func checkMustRaceWitnesses(t *testing.T, name string, p *prog.Program, rep *staticrace.Report) {
	t.Helper()
	replayed := map[[2]int]bool{}
	for _, pair := range rep.Pairs {
		if pair.Verdict != staticrace.MustRace {
			continue
		}
		second := pair.A.Thread + pair.B.Thread - pair.WitnessFirst
		key := [2]int{pair.WitnessFirst, second}
		if replayed[key] {
			continue
		}
		replayed[key] = true
		_, err := p.RunPicked(prog.SequentialPicker(key[0], key[1]), oracleDet())
		var re *machine.RaceError
		if !errors.As(err, &re) {
			t.Errorf("%s: MustRace %v: witness (t%d then t%d) raised %v, want a race exception\n%s",
				name, pair, key[0], key[1], err, p)
		}
	}
}

func TestSoundnessOnChannelPrograms(t *testing.T) {
	const programs = 2000
	var raceFree, mayRace, mustRace, explored int
	for seed := int64(0); seed < programs; seed++ {
		p := chanProgram(seed)
		rep := staticrace.Analyze(p)
		name := fmt.Sprintf("seed %d", seed)
		checkMustRaceWitnesses(t, name, p, rep)
		switch rep.Verdict() {
		case staticrace.RaceFree:
			raceFree++
			if len(rep.Pairs) == 0 {
				continue // no conflicting pair: nothing any run could raise
			}
			res := explore.RunProgram(explore.Options{
				Detector: oracleDet,
				MaxRuns:  5000,
			}, p, nil)
			if !res.Exhaustive() {
				continue // too large to settle; the proof goes unchecked
			}
			explored++
			if n := exceptionTotal(res); n != 0 {
				t.Errorf("%s: RaceFree verdict but %d interleavings excepted: %+v\n%s", name, n, res, p)
			}
		case staticrace.MayRace:
			mayRace++
		default:
			mustRace++
		}
	}
	t.Logf("verdicts over %d channel programs: %d RaceFree (%d with pairs explored exhaustively), %d MayRace, %d MustRace",
		programs, raceFree, explored, mayRace, mustRace)
	if explored < 10 || mustRace < 500 {
		t.Fatalf("fuzz distribution too thin: %d RaceFree explored, %d MustRace", explored, mustRace)
	}
}

// TestMultiWaiterWakeWitness: in the w0-first witness schedule, w0 holds
// lock 0 while it blocks on a receive, so w1 and w2 both block on lock 0
// before w3's send lets w0 release it. The machine wakes one waiter by
// its seeded policy — the same policy every replay uses — and w0's write
// then runs unordered with w1's earlier write. (The w1-first schedule
// orders the pair through lock 0, so this direction is the only witness.)
func TestMultiWaiterWakeWitness(t *testing.T) {
	p, err := prog.Parse(strings.NewReader(`region 4
locks 1
chan 0
thread
  lock 0
  recv 0
  unlock 0
  write 0 1
thread
  write 0 1
  lock 0
  unlock 0
thread
  lock 0
  unlock 0
thread
  send 0
`))
	if err != nil {
		t.Fatal(err)
	}
	rep := staticrace.Analyze(p)
	if rep.Verdict() != staticrace.MustRace {
		t.Fatalf("verdict %v, want MustRace:\n%v", rep.Verdict(), rep.Pairs)
	}
	first, second, _ := rep.Witness()
	if first != 0 || second != 1 {
		t.Fatalf("witness t%d then t%d, want t0 then t1", first, second)
	}
	checkMustRaceWitnesses(t, "multi-waiter", p, rep)
}
