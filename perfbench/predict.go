package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/gofront"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/prog"
	"repro/internal/workloads"
)

// gosrcDir is the Go source corpus, relative to the checkout root.
const gosrcDir = "testdata/gosrc"

// predictItem is one prediction target of a pass.
type predictItem struct {
	name   string
	target predict.Target
	kernel bool // a registry-racy kernel, counted in race_recall
}

// predictBench runs predict.Run over the unmodified racy kernels at test
// scale and over the litmus + Go source corpus, one after another.
type predictBench struct {
	items        []predictItem
	registryRacy int
}

// setupPredict lowers the corpus, builds every target and records each
// once, so a target that cannot even be recorded fails set-up.
func setupPredict(_ int64, _ config) (instance, error) {
	b := &predictBench{}
	racy := workloads.RacyNames()
	b.registryRacy = len(racy)
	for _, n := range racy {
		w, _ := workloads.ByName(n)
		b.items = append(b.items, predictItem{
			name:   n,
			target: predict.WorkloadTarget(w, workloads.ScaleTest, workloads.Unmodified),
			kernel: true,
		})
	}
	for _, l := range prog.Litmuses() {
		b.items = append(b.items, predictItem{name: "litmus/" + l.Name, target: predict.ProgramTarget(l.P)})
	}
	files, err := filepath.Glob(filepath.Join(gosrcDir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go sources under %s", gosrcDir)
	}
	sort.Strings(files)
	for _, f := range files {
		gp, err := gofront.Load(f)
		if err != nil {
			return nil, err
		}
		b.items = append(b.items, predictItem{name: "gosrc/" + filepath.Base(f), target: predict.ProgramTarget(gp.Prog)})
	}
	for _, it := range b.items {
		if rec := predict.Record(it.target, predict.Options{}); rec.Events == 0 {
			return nil, fmt.Errorf("%s: empty recording (%v)", it.name, rec.Err)
		}
	}
	return b, nil
}

func (b *predictBench) close() error { return nil }

// pass runs predict.Run on every item, recording item i under seed+i.
func (b *predictBench) pass(seed int64) (passResult, error) {
	p, _ := b.run(seed, nil, nil)
	return p, nil
}

// predictLayers aggregates one traced pass.
type predictLayers struct {
	runWall, record, analyze                     float64
	candidates, feasible, certified, replaySteps float64
	steps, shared, syncOps                       float64
}

// run makes one pass. With tr set it is traced: each item also records
// once on its own (timing predict.Record apart from the analysis), and
// certification replays run under the timing detector.
func (b *predictBench) run(seed int64, tr *tracer, timer *checkTimer) (passResult, predictLayers) {
	p := passResult{clients: 1}
	var a predictLayers
	var runWall float64
	var ps int
	if tr != nil {
		ps = tr.open("pass", 0, tr.group())
	}
	mark := markSteal()
	for i, it := range b.items {
		opts := predict.Options{Seed: seed + int64(i)}
		var group, is int
		if tr != nil {
			group = tr.group()
			is = tr.open("program", ps, group)
			opts.Detector = func() machine.Detector { return newTimedDetector(timer) }
			t0 := time.Now()
			rec := predict.Record(it.target, opts)
			t1 := time.Now()
			tr.add("predict.Record", is, group, t0, t1)
			a.record += t1.Sub(t0).Seconds()
			countEvents(rec, &a)
		}
		t0 := time.Now()
		res := predict.Run(it.target, opts)
		lat := time.Since(t0).Seconds()
		p.latencies = append(p.latencies, lat)
		if tr != nil {
			tr.add("predict.Run", is, group, t0, t0.Add(time.Duration(lat*1e9)))
			tr.close(is)
			runWall += lat
			a.candidates += float64(res.Candidates)
			a.feasible += float64(res.Feasible)
			a.certified += float64(res.Feasible - res.Uncertified)
			a.replaySteps += float64(res.ReplaySteps)
			a.steps += float64(res.Steps())
		}
		if err := checkPredictions(it.name, res); err != nil {
			p.failed++
			p.latencies[len(p.latencies)-1] = failedLatency
			fmt.Println("check failed:", err)
			continue
		}
		if it.kernel {
			p.racyRan++
			if len(res.Predictions) > 0 {
				p.racyHit++
			}
		}
	}
	if err := checkRecall(p.racyHit, p.racyRan, b.registryRacy); err != nil {
		p.failed++
		fmt.Println("check failed:", err)
	}
	p.finish(mark)
	if tr != nil {
		tr.close(ps)
		// predict.Run records again before it analyses; the analysis is
		// what remains.
		a.analyze = runWall - a.record
	}
	return p, a
}

// countEvents adds a recording's shared accesses and synchronization
// operations to a.
func countEvents(rec *predict.Recording, a *predictLayers) {
	for _, th := range rec.Threads {
		for _, e := range th {
			switch e.Kind {
			case predict.KindRead, predict.KindWrite:
				a.shared++
			case predict.KindWork: // private computation
			default:
				a.syncOps++
			}
		}
	}
}

// traced alternates untraced and traced passes until the deadline.
func (b *predictBench) traced(seed int64, deadline time.Time, tr *tracer, record func(passResult)) (map[string]float64, error) {
	var (
		untraced untracedPasses
		tracedT  itemTimes
		layers   []predictLayers
		timer    checkTimer
	)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		s := passSeed(seed, i)
		if i%2 == 0 {
			if err := untraced.run(b, s, record); err != nil {
				return nil, err
			}
			continue
		}
		// A traced pass's latencies time predict.Run alone; its separate
		// predict.Record call is left out.
		p, a := b.run(s, tr, &timer)
		record(p)
		tracedT.add(p.latencies)
		layers = append(layers, a)
	}
	col := func(f func(predictLayers) float64) float64 { return medianOf(layers, f) }
	var certified, feasible float64
	for _, a := range layers {
		certified += a.certified
		feasible += a.feasible
	}
	return untraced.addMetrics(map[string]float64{
		"machine.steps":           col(func(a predictLayers) float64 { return a.steps }),
		"machine.shared_accesses": col(func(a predictLayers) float64 { return a.shared }),
		"machine.sync_ops":        col(func(a predictLayers) float64 { return a.syncOps }),
		"core.check_ns":           timer.perCheckNs(),
		"core.check_calls":        float64(timer.calls) / float64(len(layers)),
		"predict.record_s":        col(func(a predictLayers) float64 { return a.record }),
		"predict.analyze_s":       col(func(a predictLayers) float64 { return a.analyze }),
		"predict.candidates":      col(func(a predictLayers) float64 { return a.candidates }),
		"predict.feasible":        col(func(a predictLayers) float64 { return a.feasible }),
		"predict.certified":       col(func(a predictLayers) float64 { return a.certified }),
		"predict.replay_steps":    col(func(a predictLayers) float64 { return a.replaySteps }),
		"predict.certify_yield":   ratio(certified, feasible),
	}, tracedT), nil
}
