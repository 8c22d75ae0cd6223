package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	clean "repro"
	apiv1 "repro/api/v1"
	"repro/internal/gofront"
	"repro/internal/harness"
	"repro/internal/predict"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// serviceClients is the closed loop's client count: each waits for its
// job's result before submitting the next, as cleanrun -remote does. Two
// clients against the server's default two workers keep the load within
// the two CPUs the benchmark is sized for.
const serviceClients = 2

// serviceJobTimeout bounds one job's submit-to-result wait.
const serviceJobTimeout = 2 * time.Minute

// The mix's small-job counts: each litmus runs as a detection job under
// serviceLitmusSeeds seeds (and once as a predict job), next to
// serviceProgramJobs generated program texts. They size a pass so that a
// run of a few dozen passes puts more than ten jobs beyond p99.
const (
	serviceLitmusSeeds = 2
	serviceProgramJobs = 12
)

// Workload jobs of the mix at simsmall scale: race-free kernels that run
// tens of milliseconds, and racy kernels that stop at their first race.
var (
	serviceModified   = []string{"fmm", "ocean_cp", "fft"}
	serviceUnmodified = []string{"dedup", "water_nsquared", "cholesky"}
)

// jobItem is one job of the mix with the verdict the in-process facade
// gives for the same spec and seed.
type jobItem struct {
	name     string
	spec     apiv1.JobSpec
	want     verdict
	workload bool // a simsmall workload job; the rest are small jobs
	racy     bool // an unmodified racy kernel, counted in race_recall
}

// serviceBench drives an in-process cleand — durable file store, default
// workers, real HTTP on a loopback listener — with a closed loop of
// clients over a fixed job mix.
type serviceBench struct {
	dir      string
	st       *store.FileStore
	srv      *service.Server
	hs       *httptest.Server
	clients  []*service.Client
	sessions []string
	jobs     []jobItem
}

// setupService starts the server on a fresh store, opens one session per
// client and builds the job mix with its reference verdicts.
func setupService(seed int64, cfg config) (instance, error) {
	tmp := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	b := &serviceBench{dir: dir}
	if b.st, err = store.Open(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b.srv = service.New(service.Config{Store: b.st})
	b.hs = httptest.NewServer(service.Handler(b.srv))
	ctx, cancel := context.WithTimeout(context.Background(), serviceJobTimeout)
	defer cancel()
	for c := 0; c < serviceClients; c++ {
		cl := service.NewClient(b.hs.URL)
		sess, err := cl.CreateSession(ctx, apiv1.SessionConfig{Detection: "clean", DetSync: true})
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, cl)
		b.sessions = append(b.sessions, sess.ID)
	}
	if b.jobs, err = serviceMix(seed); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// serviceMix builds the job list: every litmus as detection jobs and as
// a predict job, every Go source file, generated program texts and the
// simsmall workload jobs, each with a scheduler seed drawn from seed.
// The kinds and counts are fixed; the seed picks the programs and seeds.
func serviceMix(seed int64) ([]jobItem, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []jobItem
	add := func(name string, spec apiv1.JobSpec, p *prog.Program) error {
		spec.Seeds = []int64{rng.Int63n(1 << 30)}
		want, err := referenceVerdict(spec, p)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", name, err)
		}
		it := jobItem{name: name, spec: spec, want: want}
		if w := spec.Workload; w != nil {
			it.workload = true
			it.racy = w.Variant == "unmodified"
		}
		jobs = append(jobs, it)
		return nil
	}
	for _, l := range prog.Litmuses() {
		for i := 0; i < serviceLitmusSeeds; i++ {
			if err := add(fmt.Sprintf("litmus/%s/%d", l.Name, i), apiv1.JobSpec{Litmus: l.Name}, l.P); err != nil {
				return nil, err
			}
		}
		if err := add("predict/"+l.Name, apiv1.JobSpec{Litmus: l.Name, Detection: "predict"}, l.P); err != nil {
			return nil, err
		}
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
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		gp, err := gofront.LoadSource(f, src)
		if err != nil {
			return nil, err
		}
		if err := add("gosrc/"+filepath.Base(f), apiv1.JobSpec{GoSource: string(src)}, gp.Prog); err != nil {
			return nil, err
		}
	}
	for i := 0; i < serviceProgramJobs; i++ {
		p := progen.Generate(progen.DefaultConfig(rng.Int63()))
		if err := add(fmt.Sprintf("program/%d", i), apiv1.JobSpec{Program: p.String()}, p); err != nil {
			return nil, err
		}
	}
	for _, n := range serviceModified {
		spec := apiv1.JobSpec{Workload: &apiv1.WorkloadSpec{Name: n, Scale: "simsmall", Variant: "modified"}}
		if err := add("workload/"+n, spec, nil); err != nil {
			return nil, err
		}
	}
	for _, n := range serviceUnmodified {
		spec := apiv1.JobSpec{Workload: &apiv1.WorkloadSpec{Name: n, Scale: "simsmall", Variant: "unmodified"}}
		if err := add("workload/"+n+"/unmodified", spec, nil); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// referenceVerdict runs the spec in process through the facade (or
// predict, for predict jobs) under the same session settings the service
// applies: CLEAN, Kendo on, the server's default step budget.
func referenceVerdict(spec apiv1.JobSpec, p *prog.Program) (verdict, error) {
	seed := spec.Seeds[0]
	if spec.Detection == "predict" {
		res := predict.Run(predict.ProgramTarget(p), predict.Options{Seed: seed, MaxSteps: harness.DefaultMaxSteps})
		v := verdict{outcome: clean.OutcomeOf(res.Recording.Err)}
		if len(res.Predictions) > 0 {
			first := res.V1(nil)[0]
			v = verdict{outcome: apiv1.OutcomeRaceException, hash: first.DeterminismHash,
				race: fmt.Sprintf("%s@%#x", first.Witness.Kind, first.Witness.Addr)}
		}
		return v, nil
	}
	cfg, err := clean.NewConfig(clean.WithDetection(clean.DetectCLEAN), clean.WithSeed(seed),
		clean.WithDeterministicSync(true), clean.WithMaxSteps(harness.DefaultMaxSteps))
	if err != nil {
		return verdict{}, err
	}
	var runErr error
	var hash uint64
	if w := spec.Workload; w != nil {
		rep, err := clean.RunWorkload(w.Name, w.Scale, w.Variant == "modified", cfg)
		if err != nil {
			return verdict{}, err
		}
		runErr, hash = rep.Err, rep.OutputHash
	} else {
		m := clean.NewMachine(cfg)
		root, base := p.Build(m)
		runErr = m.Run(root)
		if runErr == nil {
			hash = m.HashMem(base, p.Region)
		}
		m.ReleaseMetadata()
	}
	v := verdict{outcome: clean.OutcomeOf(runErr)}
	var re *clean.RaceError
	switch {
	case runErr == nil:
		v.hash = telemetry.FormatHash(hash)
	case errors.As(runErr, &re):
		v.race = fmt.Sprintf("%s@%#x", re.Kind, re.Addr)
	}
	return v, nil
}

// close drains the server, then stops the listener and the store and
// removes the store's directory.
func (b *serviceBench) close() error {
	var errs []error
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), serviceJobTimeout)
		errs = append(errs, b.srv.Drain(ctx))
		cancel()
	}
	if b.hs != nil {
		b.hs.Close()
	}
	if b.st != nil {
		errs = append(errs, b.st.Close())
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}

// jobRun is one job's client-side outcome.
type jobRun struct {
	idx        int // position in the job list
	item       jobItem
	start, end time.Time
	job        *apiv1.Job
	err        error
}

// runJobs sends the mix once, in an order drawn from seed, through the
// closed loop of clients.
func (b *serviceBench) runJobs(seed int64) []jobRun {
	order := rand.New(rand.NewSource(seed)).Perm(len(b.jobs))
	runs := make([]jobRun, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range b.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				it := b.jobs[order[i]]
				ctx, cancel := context.WithTimeout(context.Background(), serviceJobTimeout)
				start := time.Now()
				job, err := b.clients[c].Run(ctx, b.sessions[c], it.spec)
				runs[i] = jobRun{idx: order[i], item: it, start: start, end: time.Now(), job: job, err: err}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	return runs
}

// tallyJobs checks every run into a pass, its latencies in job-list
// order.
func (b *serviceBench) tallyJobs(runs []jobRun) passResult {
	p := passResult{clients: len(b.clients), latencies: make([]float64, len(b.jobs))}
	for _, r := range runs {
		lat := r.end.Sub(r.start).Seconds()
		err := r.err
		if err == nil {
			err = checkJob(r.item.name, r.item.want, r.job)
		}
		if err != nil {
			p.failed++
			lat = failedLatency
			fmt.Println("check failed:", err)
		}
		p.latencies[r.idx] = lat
		if r.item.racy {
			p.racyRan++
			if err == nil && r.job.Runs[0].Outcome == apiv1.OutcomeRaceException {
				p.racyHit++
			}
		}
	}
	return p
}

func (b *serviceBench) pass(seed int64) (passResult, error) {
	mark := markSteal()
	runs := b.runJobs(seed)
	p := b.tallyJobs(runs)
	p.finish(mark)
	return p, nil
}

// traced alternates untraced and traced passes until the deadline. A
// traced pass records each job as a client span with the server's
// lifecycle phases (Job.Trace) as its children; the HTTP and client cost
// is the job span's self time.
func (b *serviceBench) traced(seed int64, deadline time.Time, tr *tracer, record func(passResult)) (map[string]float64, error) {
	var (
		untraced untracedPasses
		tracedT  itemTimes
		phases   = map[string][]float64{}
		httpS    []float64
		// Client latency of gosource jobs and of all others: gofront's
		// lowering on the submit path makes the former the slowest small
		// jobs, so they, not simsmall queueing, set the mix's p99.
		goLat, otherLat []float64
	)
	for i := 0; i < 4 || time.Now().Before(deadline); i++ {
		s := passSeed(seed, i)
		if i%2 == 0 {
			if err := untraced.run(b, s, record); err != nil {
				return nil, err
			}
			continue
		}
		mark := markSteal()
		ps := tr.open("pass", 0, tr.group())
		runs := b.runJobs(s)
		tr.close(ps)
		p := b.tallyJobs(runs)
		p.finish(mark)
		record(p)
		tracedT.add(p.latencies)
		for _, r := range runs {
			group := tr.group()
			js := tr.add("service.Client.Run", ps, group, r.start, r.end)
			if r.err != nil || r.job.Trace == nil {
				continue
			}
			for _, sp := range r.job.Trace.Spans {
				at := time.Unix(0, sp.StartUnixNano)
				tr.add("server."+sp.Phase, js, group, at, at.Add(time.Duration(sp.Seconds*1e9)))
				key := sp.Phase
				switch {
				case sp.Phase == "running" && r.item.workload:
					key = "running.workload"
				case sp.Phase == "running":
					key = "running.small"
				case sp.Phase == "requeued":
					// Only a contained worker panic requeues a job; the
					// phase has no metric of its own.
					continue
				}
				phases[key] = append(phases[key], sp.Seconds)
			}
			lat := r.end.Sub(r.start).Seconds()
			httpS = append(httpS, lat-r.job.Trace.TotalSeconds)
			if r.item.spec.GoSource != "" {
				goLat = append(goLat, lat)
			} else {
				otherLat = append(otherLat, lat)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), serviceJobTimeout)
	defer cancel()
	snap, err := b.clients[0].Metrics(ctx)
	if err != nil {
		return nil, err
	}
	m := untraced.addMetrics(map[string]float64{
		"service.http_s.p50":                percentile(httpS, 50),
		"service.http_s.p99":                percentile(httpS, 99),
		"service.latency_s.gosource.p50":    percentile(goLat, 50),
		"service.latency_s.no_gosource.p99": percentile(otherLat, 99),
		"store.fsync_s.p50":                 snap.Metrics.Histograms["store.fsync_seconds"].P50,
		"store.batch_size.mean":             snap.Metrics.Histograms["store.group_commit_records"].Mean,
		"service.rejected_429":              float64(snap.Metrics.Counters["service.jobs_rejected"]),
	}, tracedT)
	for key, xs := range phases {
		name := phaseMetric(key)
		m[name+".p50"] = percentile(xs, 50)
		m[name+".p99"] = percentile(xs, 99)
	}
	return m, nil
}

// phaseMetric maps a lifecycle phase key to its metric name stem:
// "running.small" becomes service.running_s.small.
func phaseMetric(key string) string {
	switch key {
	case "running.small":
		return "service.running_s.small"
	case "running.workload":
		return "service.running_s.workload"
	}
	return "service." + key + "_s"
}
