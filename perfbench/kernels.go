package main

import (
	"fmt"
	"math"
	"time"

	clean "repro"
	"repro/internal/core"
	"repro/internal/shadow"
	"repro/internal/workloads"
)

// denseKernels are the kernels-dense inputs: the six kernels with the
// highest shared-access density (the scheduler is amortised over
// YieldEvery=32, so the race check carries much of the time) plus dedup
// and volrend, whose byte-granular writes force expanded shadow lines.
var denseKernels = []string{"lu_cb", "lu_ncb", "radix", "ocean_cp", "ocean_ncp", "fft", "dedup", "volrend"}

// denseYieldEvery is the Fig. 6 scheduling granularity of EXPERIMENTS.md.
const denseYieldEvery = 32

// kernelItem is one kernel run of a pass.
type kernelItem struct {
	w        workloads.Workload
	modified bool
	hash     uint64 // reference output hash of a modified run
}

func (it kernelItem) variant() workloads.Variant {
	if it.modified {
		return workloads.Modified
	}
	return workloads.Unmodified
}

// kernelBench runs benchmark kernels under full CLEAN (detector + Kendo)
// one after another: every modified kernel must reproduce its reference
// output, every unmodified racy kernel must stop with a race exception.
type kernelBench struct {
	items []kernelItem
	scale workloads.Scale
	yield int // Config.YieldEvery; 0 is the facade default (every op)
}

func setupKernelsFine(seed int64, _ config) (instance, error) {
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	return newKernelBench(seed, names, workloads.ScaleNative, 0)
}

func setupKernelsDense(seed int64, _ config) (instance, error) {
	return newKernelBench(seed, denseKernels, workloads.ScaleNative, denseYieldEvery)
}

// newKernelBench lists the modified variant of each named kernel that
// has one, then the unmodified variant of each racy one, and computes every modified
// kernel's reference output hash with the detector off and Kendo on.
// Kendo stays on because without it some race-free kernels (cholesky,
// fmm, radiosity, bodytrack) legitimately produce seed-dependent output.
func newKernelBench(seed int64, names []string, scale workloads.Scale, yield int) (*kernelBench, error) {
	k := &kernelBench{scale: scale, yield: yield}
	var racy []kernelItem
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", n)
		}
		if w.HasModified {
			k.items = append(k.items, kernelItem{w: w, modified: true})
		}
		if w.Racy {
			racy = append(racy, kernelItem{w: w})
		}
	}
	k.items = append(k.items, racy...)

	refSeed := passSeed(^seed, 0)
	for i := range k.items {
		it := &k.items[i]
		if !it.modified {
			continue
		}
		rep, err := clean.RunWorkload(it.w.Name, k.scale.String(), true, clean.Config{
			Seed: refSeed + int64(i), DeterministicSync: true, YieldEvery: k.yield,
		})
		if err != nil {
			return nil, err
		}
		if rep.Err != nil {
			return nil, fmt.Errorf("%s: reference run failed: %w", it.w.Name, rep.Err)
		}
		it.hash = rep.OutputHash
	}
	return k, nil
}

func (k *kernelBench) close() error { return nil }

// fullConfig is full CLEAN: detector plus Kendo, at the workload's
// granularity.
func (k *kernelBench) fullConfig(seed int64) clean.Config {
	return clean.Config{Seed: seed, Detection: clean.DetectCLEAN, DeterministicSync: true, YieldEvery: k.yield}
}

// pass runs every item through clean.RunWorkload, the entry point users
// call.
func (k *kernelBench) pass(seed int64) (passResult, error) {
	p := passResult{clients: 1}
	mark := markSteal()
	for i, it := range k.items {
		t0 := time.Now()
		rep, err := clean.RunWorkload(it.w.Name, k.scale.String(), it.modified, k.fullConfig(seed+int64(i)))
		if err != nil {
			return p, err
		}
		p.latencies = append(p.latencies, time.Since(t0).Seconds())
		k.tally(&p, it, rep.Err, rep.OutputHash)
	}
	p.finish(mark)
	return p, nil
}

// tally checks one item's output into p.
func (k *kernelBench) tally(p *passResult, it kernelItem, err error, hash uint64) {
	if cerr := checkKernel(it.w.Name, !it.modified, it.hash, err, hash); cerr != nil {
		p.failed++
		p.latencies[len(p.latencies)-1] = failedLatency
		fmt.Println("check failed:", cerr)
	} else if !it.modified {
		p.racyHit++
	}
	if !it.modified {
		p.racyRan++
	}
}

// rung is one step of the Fig. 6 ablation ladder.
type rung struct {
	detect, kendo, metrics bool
}

var ladder = [...]rung{
	{},                  // uninstrumented: no detector, no Kendo
	{detect: true},      // CLEAN
	{true, true, false}, // CLEAN + Kendo (the full configuration)
	{true, true, true},  // + telemetry registry
}

// kernelRun is what one traced kernel run yields.
type kernelRun struct {
	build, total float64 // seconds: machine construction + Workload.Build; whole run
	err          error
	hash         uint64
	stats        clean.Stats
	core         core.Stats
	fp           shadow.Footprint
}

// runKernel builds and runs one item through clean.NewMachineWithDetector
// with the timing decorator as its detector, recording a span per layer
// call.
func (k *kernelBench) runKernel(it kernelItem, cfg clean.Config, det *timedDetector, tr *tracer, parent int) kernelRun {
	group := tr.group()
	ks := tr.open("kernel", parent, group)
	t0 := time.Now()
	m := clean.NewMachineWithDetector(cfg, det)
	root, out := it.w.Build(m, k.scale, it.variant())
	t1 := time.Now()
	var r kernelRun
	r.err = m.Run(root)
	t2 := time.Now()
	if r.err == nil {
		r.hash = m.HashMem(out.Addr, out.Len)
	}
	r.stats = m.Stats()
	r.core, r.fp = det.inner.Stats(), det.inner.Footprint()
	m.ReleaseMetadata()
	t3 := time.Now()
	tr.add("workloads.Build", ks, group, t0, t1)
	tr.add("machine.Run", ks, group, t1, t2)
	tr.add("result", ks, group, t2, t3)
	tr.close(ks)
	r.build, r.total = t1.Sub(t0).Seconds(), t3.Sub(t0).Seconds()
	return r
}

// ladderPass runs the modified items under one rung through
// clean.RunWorkload, the rung's switches set in its Config; it returns
// the pass and the summed scheduler steps.
func (k *kernelBench) ladderPass(seed int64, r rung) (passResult, float64, error) {
	p := passResult{clients: 1}
	var steps float64
	mark := markSteal()
	for i, it := range k.items {
		if !it.modified {
			continue
		}
		cfg := clean.Config{Seed: seed + int64(i), DeterministicSync: r.kendo, YieldEvery: k.yield}
		if r.detect {
			cfg.Detection = clean.DetectCLEAN
		}
		if r.metrics {
			cfg.Metrics = clean.NewMetrics()
		}
		t0 := time.Now()
		rep, err := clean.RunWorkload(it.w.Name, k.scale.String(), true, cfg)
		if err != nil {
			return p, 0, err
		}
		p.latencies = append(p.latencies, time.Since(t0).Seconds())
		steps += float64(rep.Stats.Steps)
		want := it.hash
		if !r.kendo {
			// Without Kendo some race-free kernels' outputs depend on the
			// schedule; such a rung must still complete.
			want = rep.OutputHash
		}
		if err := checkKernel(it.w.Name, false, want, rep.Err, rep.OutputHash); err != nil {
			p.failed++
			p.latencies[len(p.latencies)-1] = failedLatency
			fmt.Println("check failed:", err)
		}
	}
	p.finish(mark)
	return p, steps, nil
}

// tracedKernelPass aggregates one traced pass.
type tracedKernelPass struct {
	build                                float64
	modChecks                            float64 // access checks of the modified items
	steps, shared, syncOps, waits        float64
	linesExpanded, metaBytes             float64
	accesses, epochLoads, multi, multiEq float64
}

// tracedPass runs every item under full CLEAN with the timing decorator,
// recording a span per layer call.
func (k *kernelBench) tracedPass(seed int64, tr *tracer, timer *checkTimer) (passResult, tracedKernelPass) {
	p := passResult{clients: 1}
	var a tracedKernelPass
	ps := tr.open("pass", 0, tr.group())
	mark := markSteal()
	for i, it := range k.items {
		calls := timer.calls
		run := k.runKernel(it, k.fullConfig(seed+int64(i)), newTimedDetector(timer), tr, ps)
		if it.modified {
			a.modChecks += float64(timer.calls - calls)
		}
		p.latencies = append(p.latencies, run.total)
		k.tally(&p, it, run.err, run.hash)
		a.build += run.build
		a.steps += float64(run.stats.Steps)
		a.shared += float64(run.stats.SharedAccesses())
		a.syncOps += float64(run.stats.SyncOps)
		a.waits += float64(run.stats.DetWaitYields)
		a.linesExpanded += float64(run.fp.LinesExpanded)
		a.metaBytes += float64(run.fp.MetadataBytes)
		a.accesses += float64(run.core.Accesses)
		a.epochLoads += float64(run.core.EpochLoads)
		a.multi += float64(run.core.MultibyteAccesses)
		a.multiEq += float64(run.core.MultibyteSameEpoch)
	}
	p.finish(mark)
	tr.close(ps)
	return p, a
}

// traced interleaves, in rotating order, an untraced pass (the end-to-end
// configuration through clean.RunWorkload), a traced pass, and one pass
// per ladder rung, until the deadline. Pass times are per-item medians
// summed (itemTimes.typical), like the end-to-end pass time.
func (k *kernelBench) traced(seed int64, deadline time.Time, tr *tracer, record func(passResult)) (map[string]float64, error) {
	const nKinds = 2 + len(ladder)
	var (
		untraced     untracedPasses
		tracedT      itemTimes
		traced       []tracedKernelPass
		rungs        [len(ladder)]itemTimes
		rung0Steps   []float64
		timer        checkTimer
		hits, misses uint64
	)
	nMod := 0
	for _, it := range k.items {
		if it.modified {
			nMod++
		}
	}
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for i := 0; i < nKinds; i++ {
			if round >= 2 && !time.Now().Before(deadline) {
				break
			}
			kind := (i + round) % nKinds
			s := passSeed(seed, round*nKinds+i)
			switch kind {
			case 0:
				if err := untraced.run(k, s, record); err != nil {
					return nil, err
				}
			case 1:
				g0 := shadow.Global()
				p, a := k.tracedPass(s, tr, &timer)
				g1 := shadow.Global()
				hits, misses = hits+g1.PoolHits-g0.PoolHits, misses+g1.PoolMisses-g0.PoolMisses
				record(p)
				tracedT.add(p.latencies)
				traced = append(traced, a)
			default:
				r := kind - 2
				p, steps, err := k.ladderPass(s, ladder[r])
				if err != nil {
					return nil, err
				}
				record(p)
				rungs[r].add(p.latencies)
				if r == 0 {
					rung0Steps = append(rung0Steps, steps)
				}
			}
		}
	}
	col := func(f func(tracedKernelPass) float64) float64 { return medianOf(traced, f) }
	var sum tracedKernelPass
	for _, a := range traced {
		sum.accesses += a.accesses
		sum.epochLoads += a.epochLoads
		sum.multi += a.multi
		sum.multiEq += a.multiEq
	}
	base, clean1, full, withMetrics := rungs[0].typical(), rungs[1].typical(), rungs[2].typical(), rungs[3].typical()
	detect, kendo := clean1-base, full-clean1
	// The ledger closes the untraced full run of the modified kernels
	// (they lead the item list) against terms measured apart from it: the
	// uninstrumented rung, the decorator's access-check time and the
	// ladder's Kendo step. Its residual is how far the decorator's check
	// time falls short of the ladder's detect step, plus run-to-run noise.
	untracedMod := untraced.times[:nMod].typical()
	checkS := col(func(a tracedKernelPass) float64 { return a.modChecks }) * timer.perCheckNs() / 1e9
	return untraced.addMetrics(map[string]float64{
		"machine.steps":                  col(func(a tracedKernelPass) float64 { return a.steps }),
		"machine.shared_accesses":        col(func(a tracedKernelPass) float64 { return a.shared }),
		"machine.sync_ops":               col(func(a tracedKernelPass) float64 { return a.syncOps }),
		"machine.dispatch_ns":            ratio(base, median(rung0Steps)) * 1e9,
		"core.check_ns":                  timer.perCheckNs(),
		"core.check_calls":               float64(timer.calls) / float64(len(traced)),
		"core.detect_s":                  detect,
		"core.epoch_loads_per_access":    ratio(sum.epochLoads, sum.accesses),
		"core.multibyte_same_epoch_rate": ratio(sum.multiEq, sum.multi),
		"shadow.lines_expanded":          col(func(a tracedKernelPass) float64 { return a.linesExpanded }),
		"shadow.metadata_bytes":          col(func(a tracedKernelPass) float64 { return a.metaBytes }),
		"shadow.pool_hit_rate":           ratio(float64(hits), float64(hits+misses)),
		"kendo.wait_steps":               col(func(a tracedKernelPass) float64 { return a.waits }),
		"kendo.cost_s":                   kendo,
		"telemetry.overhead_frac":        ratio(withMetrics, full) - 1,
		"workloads.build_s":              col(func(a tracedKernelPass) float64 { return a.build }),
		"fig6.slowdown":                  ratio(full, base),
		"ledger.residual_frac":           ratio(math.Abs(untracedMod-(base+checkS+kendo)), untracedMod),
	}, tracedT), nil
}
