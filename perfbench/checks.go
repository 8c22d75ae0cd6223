package main

import (
	"errors"
	"fmt"

	apiv1 "repro/api/v1"
	"repro/internal/machine"
	"repro/internal/predict"
)

// The output checks. Each returns nil when an output is correct and an
// error naming what differs otherwise; a failed check counts the item as
// failed, so it shows in the result's failed count.

// checkKernel checks one kernel run. A race-free (modified) run must
// complete with the reference output hash, which set-up computed without
// the detector; a racy run must stop with a WAW or RAW race exception.
func checkKernel(name string, racy bool, wantHash uint64, err error, hash uint64) error {
	if racy {
		return checkRace(name, err)
	}
	if err != nil {
		return fmt.Errorf("%s: race-free run failed: %w", name, err)
	}
	if hash != wantHash {
		return fmt.Errorf("%s: output hash %#x, want %#x", name, hash, wantHash)
	}
	return nil
}

// checkRace accepts only a WAW or RAW race exception.
func checkRace(name string, err error) error {
	var re *machine.RaceError
	if !errors.As(err, &re) {
		return fmt.Errorf("%s: racy run ended with %v, want a race exception", name, err)
	}
	if re.Kind != machine.WAW && re.Kind != machine.RAW {
		return fmt.Errorf("%s: race exception of kind %v, want WAW or RAW", name, re.Kind)
	}
	return nil
}

// checkPredictions accepts a prediction result only if every prediction
// it returns is certified: a replayed WAW or RAW exception at the
// predicted access, with a witness schedule.
func checkPredictions(name string, res *predict.Result) error {
	for i, p := range res.Predictions {
		switch {
		case !p.Certified:
			return fmt.Errorf("%s: prediction %d is not certified", name, i)
		case p.Race == nil:
			return fmt.Errorf("%s: prediction %d carries no replayed race", name, i)
		case p.Race.Kind != machine.WAW && p.Race.Kind != machine.RAW:
			return fmt.Errorf("%s: prediction %d replayed a %v race, want WAW or RAW", name, i, p.Race.Kind)
		case p.Race.Kind != p.Kind || p.Race.Addr != p.Second.Addr:
			return fmt.Errorf("%s: prediction %d replayed %v@%#x, predicted %v@%#x", name, i, p.Race.Kind, p.Race.Addr, p.Kind, p.Second.Addr)
		case len(p.Schedule) == 0:
			return fmt.Errorf("%s: prediction %d has no witness schedule", name, i)
		}
	}
	return nil
}

// checkRecall guards the recall denominator: a pass must have run every
// racy kernel of the registry, and cannot have flagged more than it ran.
func checkRecall(hit, ran, registryRacy int) error {
	if ran != registryRacy {
		return fmt.Errorf("recall over %d racy kernels, registry has %d", ran, registryRacy)
	}
	if hit < 0 || hit > ran {
		return fmt.Errorf("recall %d/%d out of range", hit, ran)
	}
	return nil
}

// verdict is the part of a run's result the service must reproduce.
type verdict struct {
	outcome string
	hash    string // determinism hash of a completed or predicted run
	race    string // "KIND@addr" of a race exception's witness, if any
}

// verdictOf extracts the verdict of a service run result.
func verdictOf(r apiv1.RunResult) verdict {
	v := verdict{outcome: r.Outcome, hash: r.DeterminismHash}
	if r.Witness != nil {
		v.race = fmt.Sprintf("%s@%#x", r.Witness.Kind, r.Witness.Addr)
	}
	return v
}

// checkJob checks a finished service job against the in-process facade
// result for the same spec and seed.
func checkJob(name string, want verdict, job *apiv1.Job) error {
	if job.State != apiv1.JobDone {
		return fmt.Errorf("%s: job state %q, want %q", name, job.State, apiv1.JobDone)
	}
	if len(job.Runs) != 1 {
		return fmt.Errorf("%s: %d run results, want 1", name, len(job.Runs))
	}
	if got := verdictOf(job.Runs[0]); got != want {
		return fmt.Errorf("%s: service verdict %+v, in-process %+v", name, got, want)
	}
	return nil
}
