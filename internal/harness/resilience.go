package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	clean "repro"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vclock"
	"repro/internal/workloads"
)

// DefaultMaxSteps is the scheduler-step budget every harness run carries
// unless it chooses its own (resilience runs budget from calibration,
// cleanrun -faults from -maxsteps): roughly 25x the largest
// native-scale run, so a buggy or fault-degraded workload can never hang
// cmd/cleanbench, while no legitimate experiment comes near it.
const DefaultMaxSteps = 200_000_000

// faultReport is the outcome of one fault-injected run.
type faultReport struct {
	Err         error
	Stats       machine.Stats
	DetStats    core.Stats
	Hash        uint64
	Counters    []uint64
	Fired       []string
	Uncontained string // non-empty when a panic escaped machine.Run
	// Metrics is the run's telemetry snapshot, serialized into the
	// violation artifact's RunReport. Excluded from Fingerprint.
	Metrics telemetry.Snapshot
}

// Outcome classifies a fault-injected run for the resilience table: the
// RunReport vocabulary of clean.OutcomeOf, with a completed run labelled
// "clean" or, when the detector repaired metadata, "metadata-degraded",
// and an escaped panic "UNCONTAINED".
func (r faultReport) Outcome() string {
	switch {
	case r.Uncontained != "":
		return "UNCONTAINED"
	case r.Err == nil && r.DetStats.MetadataRepairs > 0:
		return "metadata-degraded"
	case r.Err == nil:
		return "clean"
	}
	return clean.OutcomeOf(r.Err)
}

// Fingerprint renders everything observable about the run; replay of the
// same (seed, plan) must reproduce it byte-identically.
func (r faultReport) Fingerprint() string {
	errStr := "<nil>"
	if r.Err != nil {
		errStr = r.Err.Error()
	}
	return fmt.Sprintf("err=%q hash=%#x counters=%v fired=%v shared=%d ops=%d steps=%d crashes=%d spurious=%d stalled=%d rollovers=%d repairs=%d",
		errStr, r.Hash, r.Counters, r.Fired,
		r.Stats.SharedAccesses(), r.Stats.Ops, r.Stats.Steps,
		r.Stats.Crashes, r.Stats.SpuriousWakes, r.Stats.StalledSteps,
		r.Stats.Rollovers, r.DetStats.MetadataRepairs)
}

// Dump extracts the diagnostic dump attached to the run's error, if any.
func (r faultReport) Dump() *machine.Dump {
	var live *machine.LivelockError
	var merr *machine.MachineError
	switch {
	case errors.As(r.Err, &live):
		return live.Dump
	case errors.As(r.Err, &merr):
		return merr.Dump
	}
	return nil
}

// runFaultOnce executes one target under a fault plan with CLEAN +
// deterministic synchronization and a step budget. It is the harness's
// one run outside clean.Run: the injector must bind the detector's shadow
// region before the run starts. Any panic that escapes the machine is
// caught and reported as UNCONTAINED — the resilience acceptance is that
// this never happens.
func runFaultOnce(t clean.Target, plan faults.Plan, seed int64, maxSteps uint64, yieldEvery int) (rep faultReport) {
	defer func() {
		if r := recover(); r != nil {
			rep.Uncontained = fmt.Sprint(r)
		}
	}()
	inj := faults.New(plan)
	reg := telemetry.NewRegistry()
	cfg := clean.Config{
		Seed:              seed,
		DeterministicSync: true,
		Detection:         clean.DetectCLEAN,
		YieldEvery:        yieldEvery,
		MaxSteps:          maxSteps,
		FaultInjector:     inj,
		Metrics:           reg,
	}
	if cb := plan.ClockBits(); cb != 0 {
		cfg.ClockBits, cfg.TIDBits = cb, vclock.DefaultLayout.TIDBits
	}
	det := cfg.NewDetector().(*core.Detector)
	inj.BindShadow(det.Epochs())
	m := clean.NewMachineWithDetector(cfg, det)
	root, hashAddr, hashLen := t.Build(m)
	err := m.Run(root)
	rep.Err = err
	rep.Stats = m.Stats()
	rep.DetStats = det.Stats()
	rep.Counters = m.FinalCounters()
	rep.Fired = inj.Fired()
	det.Stats().PublishTo(reg)
	rep.Metrics = reg.Snapshot()
	if err == nil {
		rep.Hash = m.HashMem(hashAddr, hashLen)
	}
	// The report holds copies only: hand the shadow pages back to the
	// pool for the next cell.
	m.ReleaseMetadata()
	return rep
}

// calibrate measures a fault-free run of the target so PlanFor can place
// triggers inside its extent.
func calibrate(t clean.Target, seed int64, yieldEvery int) faults.Profile {
	rep := runFaultOnce(t, faults.Plan{}, seed, DefaultMaxSteps, yieldEvery)
	return faults.Profile{
		Ops:            rep.Stats.Ops,
		Steps:          rep.Stats.Steps,
		SharedAccesses: rep.Stats.SharedAccesses(),
		SyncOps:        rep.Stats.SyncOps,
		Threads:        workloads.NumThreads + 1,
	}
}

// resilienceVariant picks the race-free variant when one exists so fault
// outcomes are attributable to the injection, not to the workload's own
// races.
func resilienceVariant(wl workloads.Workload) workloads.Variant {
	if wl.HasModified {
		return workloads.Modified
	}
	return workloads.Unmodified
}

// resilienceRetries bounds the seed rotation used when a planned fault
// never fires (trigger beyond the run's actual extent under that seed).
const resilienceRetries = 3

// Resilience runs every workload under the full fault matrix with bounded
// retry + seed rotation, classifies each outcome (clean / race-exception /
// deadlock / livelock / contained-crash / metadata-degraded), and verifies
// that every injected failure replays byte-identically under the same
// (seed, plan). It returns an error — failing the experiment — when a
// panic escapes the machine, a replay diverges, or a flipped shadow bit
// produces a spurious race exception on a race-free workload.
func Resilience(w io.Writer, o Options) error {
	scale := o.scale(workloads.ScaleTest)
	ye := o.yieldEvery()
	baseSeed := int64(1)
	tb := stats.NewTable("benchmark", "fault", "outcome", "fired", "replay", "repairs", "rollovers", "tries")
	var violations []string
	outcomes := map[string]int{}
	for _, wl := range workloads.All() {
		variant := resilienceVariant(wl)
		t := predict.WorkloadTarget(wl, scale, variant)
		prof := calibrate(t, baseSeed, ye)
		// Budget generously above the calibrated extent: stall windows,
		// rollover pressure and retries all fit, while a genuinely stuck
		// run trips the livelock watchdog quickly.
		budget := prof.Steps*10 + 100_000
		for _, kind := range faults.Kinds() {
			var rep faultReport
			var plan faults.Plan
			var seed int64
			tries := 0
			for attempt := 0; attempt < resilienceRetries; attempt++ {
				tries++
				seed = baseSeed + int64(1000*attempt)
				plan = faults.PlanFor(kind, seed, prof)
				rep = runFaultOnce(t, plan, seed, budget, ye)
				if len(rep.Fired) > 0 || kind == faults.ClockPressure {
					break // the fault landed (clock pressure fires implicitly)
				}
			}
			replay := runFaultOnce(t, plan, seed, budget, ye)
			outcome := rep.Outcome()
			outcomes[outcome]++
			replayOK := rep.Fingerprint() == replay.Fingerprint()
			fired := len(rep.Fired) > 0
			if kind == faults.ClockPressure {
				fired = rep.Stats.Rollovers > 0
			}
			tb.AddRow(wl.Name, kind.String(), outcome, yesNo(fired), yesNo(replayOK),
				rep.DetStats.MetadataRepairs, rep.Stats.Rollovers, tries)

			cell := fmt.Sprintf("%s/%s", wl.Name, kind)
			priorViolations := len(violations)
			if rep.Uncontained != "" || replay.Uncontained != "" {
				violations = append(violations, fmt.Sprintf("%s: uncontained panic: %s%s", cell, rep.Uncontained, replay.Uncontained))
			}
			if !replayOK {
				violations = append(violations, fmt.Sprintf("%s: replay diverged:\n  run:    %s\n  replay: %s",
					cell, rep.Fingerprint(), replay.Fingerprint()))
			}
			if kind == faults.ShadowBitFlip && variant == workloads.Modified && outcome == "race-exception" {
				violations = append(violations, fmt.Sprintf("%s: flipped shadow bit raised a spurious race exception: %v", cell, rep.Err))
			}
			if len(violations) > priorViolations && o.ArtifactDir != "" {
				writeFaultArtifact(o.ArtifactDir, cell, plan, rep, replay)
			}
			if o.Verbose && rep.Err != nil {
				fmt.Fprintf(w, "%s: %v\n", cell, rep.Err)
			}
		}
	}
	if _, err := fmt.Fprint(w, tb.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\noutcomes:")
	for _, k := range []string{"clean", "race-exception", "deadlock", "livelock", "contained-crash", "metadata-degraded", "UNCONTAINED", "error"} {
		if outcomes[k] > 0 {
			fmt.Fprintf(w, " %s=%d", k, outcomes[k])
		}
	}
	fmt.Fprintln(w)
	if len(violations) > 0 {
		return fmt.Errorf("resilience: %d violation(s):\n%s", len(violations), strings.Join(violations, "\n"))
	}
	fmt.Fprintln(w, "all faults contained; every failure replayed byte-identically")
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// writeFaultArtifact saves a diagnostic dump plus a machine-readable
// RunReport for a violated cell so CI can upload both.
func writeFaultArtifact(dir, cell string, plan faults.Plan, rep, replay faultReport) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	base := strings.ReplaceAll(cell, "/", "-")
	var b strings.Builder
	fmt.Fprintf(&b, "cell: %s\nplan: %s (seed %d)\n\nrun:    %s\nreplay: %s\n",
		cell, plan, plan.Seed, rep.Fingerprint(), replay.Fingerprint())
	if d := rep.Dump(); d != nil {
		fmt.Fprintf(&b, "\ndiagnostic dump:\n%s", d)
	}
	_ = os.WriteFile(filepath.Join(dir, base+".txt"), []byte(b.String()), 0o644)

	jrep := telemetry.NewRunReport()
	jrep.Workload = cell
	jrep.Detector = "clean"
	jrep.Seed = plan.Seed
	jrep.DetSync = true
	jrep.Outcome = rep.Outcome()
	if rep.Err != nil {
		jrep.Error = rep.Err.Error()
	} else {
		jrep.OutputHash = telemetry.FormatHash(rep.Hash)
	}
	jrep.Metrics = rep.Metrics
	if data, err := jrep.Encode(); err == nil {
		_ = os.WriteFile(filepath.Join(dir, base+".report.json"), data, 0o644)
	}
}

// RunFault is the cmd/cleanrun -faults entry point: calibrate, build a
// deterministic plan of the named kind, run it once, verify replay, and
// print the outcome with its diagnostic dump.
func RunFault(w io.Writer, workload, scaleName, kindName string, modified bool, seed int64, maxSteps uint64, yieldEvery int) error {
	t, err := clean.WorkloadTarget(workload, scaleName, modified)
	if err != nil {
		return err
	}
	kind, err := faults.ParseKind(kindName)
	if err != nil {
		return err
	}
	if yieldEvery < 1 {
		yieldEvery = 1
	}
	prof := calibrate(t, seed, yieldEvery)
	if maxSteps == 0 {
		maxSteps = prof.Steps*10 + 100_000
	}
	plan := faults.PlanFor(kind, seed, prof)
	fmt.Fprintf(w, "fault plan:  %s (seed %d)\n", plan, seed)
	rep := runFaultOnce(t, plan, seed, maxSteps, yieldEvery)
	replay := runFaultOnce(t, plan, seed, maxSteps, yieldEvery)
	fmt.Fprintf(w, "outcome:     %s\n", rep.Outcome())
	fmt.Fprintf(w, "fired:       %v\n", rep.Fired)
	if len(rep.Fired) == 0 && kind != faults.ClockPressure {
		fmt.Fprintf(w, "note:        no injection fired under this seed (trigger outside the run's extent); try another -seed\n")
	}
	fmt.Fprintf(w, "replay:      identical=%v\n", rep.Fingerprint() == replay.Fingerprint())
	if rep.Err != nil {
		fmt.Fprintf(w, "error:       %v\n", rep.Err)
	}
	if rep.DetStats.MetadataRepairs > 0 {
		fmt.Fprintf(w, "metadata repairs (monitor-mode re-checks): %d\n", rep.DetStats.MetadataRepairs)
	}
	if d := rep.Dump(); d != nil {
		fmt.Fprintf(w, "\ndiagnostic dump:\n%s", d)
	}
	if rep.Uncontained != "" {
		return fmt.Errorf("harness: uncontained panic: %s", rep.Uncontained)
	}
	if rep.Fingerprint() != replay.Fingerprint() {
		return fmt.Errorf("harness: replay diverged from the original run")
	}
	return nil
}
