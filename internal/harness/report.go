package harness

import (
	clean "repro"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// buildRunReport assembles the machine-readable record of one harness run:
// identity, outcome, and the registry snapshot (which already carries the
// machine.*, core.*, kendo.* counters the run produced).
func buildRunReport(wl workloads.Workload, scale workloads.Scale, variant workloads.Variant,
	detector string, seed int64, detSync bool, res runResult, reg *telemetry.Registry) telemetry.RunReport {
	rep := telemetry.NewRunReport()
	rep.Workload = wl.Name
	rep.Scale = scale.String()
	rep.Variant = variant.String()
	rep.Detector = detector
	rep.Seed = seed
	rep.DetSync = detSync
	rep.Outcome = clean.OutcomeOf(res.err)
	if res.err != nil {
		rep.Error = res.err.Error()
	} else {
		rep.OutputHash = telemetry.FormatHash(res.hash)
	}
	rep.ElapsedSeconds = res.elapsed.Seconds()
	rep.Metrics = reg.Snapshot()
	return *rep
}
