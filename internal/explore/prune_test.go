package explore

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/staticrace"
)

// TestPruneSkipsStaticallyRaceFreeLitmuses: with Prune enabled, the
// statically-proven race-free litmus programs are never executed — the
// static pass stands in for the exhaustive search.
func TestPruneSkipsStaticallyRaceFreeLitmuses(t *testing.T) {
	for _, name := range []string{"locked-counter", "disjoint", "nested-locks"} {
		res := RunProgram(Options{Detector: cleanDet, Prune: true}, litmus(t, name), nil)
		if !res.Pruned || res.Runs != 0 {
			t.Errorf("%s: not pruned: %+v", name, res)
		}
		if !res.Exhaustive() {
			t.Errorf("%s: pruned result must count as exhaustive", name)
		}
	}
}

// TestPruneNeverSkipsRacyLitmuses: racy and merely may-race programs must
// still be explored; pruning only fires on a race-freedom proof.
func TestPruneNeverSkipsRacyLitmuses(t *testing.T) {
	for _, name := range []string{"waw", "raw-war", "partial-lock", "lock-shadow"} {
		res := RunProgram(Options{Detector: cleanDet, Prune: true}, litmus(t, name), nil)
		if res.Pruned || res.Runs == 0 {
			t.Errorf("%s: racy program pruned: %+v", name, res)
		}
	}
}

// TestPruneMatchesExploration: on the race-free litmuses, the pruned
// claim agrees with what the full search finds — zero exceptions over the
// exhausted space.
func TestPruneMatchesExploration(t *testing.T) {
	for _, name := range []string{"locked-counter", "disjoint", "nested-locks"} {
		full := RunProgram(Options{Detector: cleanDet, MaxRuns: 200000}, litmus(t, name), nil)
		if !full.Exhaustive() {
			t.Logf("%s: bounded check over %d runs", name, full.Runs)
		}
		if len(full.Exceptions) != 0 && exceptionTotal(full) != 0 {
			t.Errorf("%s: statically race-free but dynamically excepting: %+v", name, full)
		}
		if full.Deadlocks != 0 || full.OtherErrors != 0 {
			t.Errorf("%s: stray failures: %+v", name, full)
		}
	}
}

func exceptionTotal(r Result) int {
	n := 0
	for _, c := range r.Exceptions {
		n += c
	}
	return n
}

// TestPrunedResultShape: a pruned result is safe to consume like any
// other (non-nil exception map, zero counters).
func TestPrunedResultShape(t *testing.T) {
	res := RunProgram(Options{Prune: true}, litmus(t, "disjoint"), nil)
	if !res.Pruned {
		t.Fatal("not pruned")
	}
	if res.Exceptions == nil || res.Exceptions[machine.WAW] != 0 {
		t.Fatalf("exception map unusable: %+v", res)
	}
}

// TestConfirm: a RaceFree verdict stands only when exploration finds no
// exception, deadlock or error; MayRace stands either way.
func TestConfirm(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verdict staticrace.Verdict
		ok      bool
		summary string
	}{
		{"locked-counter", staticrace.RaceFree, true, "exhaustive exploration, 5179 interleavings: 5179 completed, 0 excepted, 0 deadlocked"},
		{"waw", staticrace.RaceFree, false, ""},
		{"lock-shadow", staticrace.MayRace, true, ""},
	} {
		summary, ok := Confirm(litmus(t, tc.name), tc.verdict, 200000)
		if ok != tc.ok {
			t.Errorf("%s as %v: ok = %v, want %v (%s)", tc.name, tc.verdict, ok, tc.ok, summary)
		}
		if tc.summary != "" && summary != tc.summary {
			t.Errorf("%s summary = %q, want %q", tc.name, summary, tc.summary)
		}
	}
}
