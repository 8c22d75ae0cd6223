// Command perfbench is the repository benchmark. It runs one named
// workload in this process for a fixed wall-clock budget, checks every
// output against a reference computed during set-up, and prints one JSON
// result line:
//
//	perfbench --workload kernels-fine --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run,
// whose spans are written under $PERFBENCH_OUT/spans. BENCHMARK.json at
// the repository root names the workloads and metrics; README.md in this
// directory explains them.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow start-up does not move it.
const setupReps = 3

// minPasses guarantees a median even when one pass outlasts --seconds.
const minPasses = 3

// failedLatency stands in for the latency of an item that failed its
// check or was refused: it lies beyond any latency limit.
const failedLatency = 1e9

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{"pass_s", "s"},
	{"job_latency_s.p50", "s"},
	{"job_latency_s.p99", "s"},
	{"race_recall", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_bytes", "B"},
}

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer a workload does not load reads 0.
var perLayer = []metricDef{
	{"machine.steps", "count"},
	{"machine.shared_accesses", "count"},
	{"machine.sync_ops", "count"},
	{"machine.dispatch_ns", "ns"},
	{"core.check_ns", "ns"},
	{"core.check_calls", "count"},
	{"core.detect_s", "s"},
	{"core.epoch_loads_per_access", "ratio"},
	{"core.multibyte_same_epoch_rate", "ratio"},
	{"shadow.lines_expanded", "count"},
	{"shadow.metadata_bytes", "B"},
	{"shadow.pool_hit_rate", "ratio"},
	{"kendo.wait_steps", "count"},
	{"kendo.cost_s", "s"},
	{"telemetry.overhead_frac", "ratio"},
	{"workloads.build_s", "s"},
	{"runtime.alloc_bytes_per_pass", "B"},
	{"runtime.gc_pause_s", "s"},
	{"fig6.slowdown", "x"},
	{"ledger.residual_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"predict.record_s", "s"},
	{"predict.analyze_s", "s"},
	{"predict.candidates", "count"},
	{"predict.feasible", "count"},
	{"predict.certified", "count"},
	{"predict.replay_steps", "count"},
	{"predict.certify_yield", "ratio"},
	{"service.journaled_s.p50", "s"},
	{"service.journaled_s.p99", "s"},
	{"service.queued_s.p50", "s"},
	{"service.queued_s.p99", "s"},
	{"service.running_s.small.p50", "s"},
	{"service.running_s.small.p99", "s"},
	{"service.running_s.workload.p50", "s"},
	{"service.running_s.workload.p99", "s"},
	{"service.stored_s.p50", "s"},
	{"service.stored_s.p99", "s"},
	{"service.http_s.p50", "s"},
	{"service.http_s.p99", "s"},
	{"service.latency_s.gosource.p50", "s"},
	{"service.latency_s.no_gosource.p99", "s"},
	{"store.fsync_s.p50", "s"},
	{"store.batch_size.mean", "count"},
	{"service.rejected_429", "count"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	outDir  string
}

// passResult is what one pass over a workload's fixed input list yields.
type passResult struct {
	wall      float64   // kept seconds for the whole pass
	plainWall float64   // wall seconds for the whole pass
	kept      float64   // share of plainWall the vCPUs kept
	latencies []float64 // kept seconds per item of the input list, in list order: submit to checked result
	clients   int       // items in flight at once (1 when they run one after another)
	failed    int       // items whose check failed
	// racyHit of racyRan registry-racy inputs had their race reported.
	racyHit, racyRan int
}

// instance is a workload after set-up.
type instance interface {
	// pass runs the fixed input list once with scheduler seeds drawn from
	// seed, checking every output.
	pass(seed int64) (passResult, error)
	// traced runs the workload's traced run until deadline, handing every
	// pass it makes to record, and returns the per-layer metrics.
	traced(seed int64, deadline time.Time, tr *tracer, record func(passResult)) (map[string]float64, error)
	close() error
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name  string
	setup func(seed int64, cfg config) (instance, error)
}

var workloadList = []workload{
	{"kernels-fine", setupKernelsFine},
	{"kernels-dense", setupKernelsDense},
	{"predict-racy", setupPredict},
	{"service-mix", setupService},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 0, "seed for scheduler seeds and inputs")
	seconds := fs.Float64("seconds", 10, "measured wall-clock budget")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			wl = &workloadList[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if _, err := readCPUTimes(); err != nil {
		return err
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), outDir: outDir}

	inst, setupS, err := setUp(*wl, cfg)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close() // the run already failed; its error is the one to report
		}
	}()

	var passes []passResult
	var raw map[string]interface{}
	record := func(p passResult) { passes = append(passes, p) }
	var metrics map[string]float64
	if *trace == 1 {
		tr := newTracer()
		layers, err := inst.traced(cfg.seed, time.Now().Add(cfg.seconds), tr, record)
		if err != nil {
			return err
		}
		path, err := tr.write(cfg.outDir, wl.name, cfg.seed)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
		fmt.Print(tr.selfTimeTable())
		metrics = make(map[string]float64, len(perLayer))
		for k, v := range layers {
			if !hasMetric(perLayer, k) {
				return fmt.Errorf("workload %s reported undeclared per-layer metric %q", wl.name, k)
			}
			metrics[k] = v
		}
	} else {
		start := time.Now()
		deadline := start.Add(cfg.seconds)
		var walls, kept []float64
		for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
			p, err := inst.pass(passSeed(cfg.seed, i))
			if err != nil {
				return err
			}
			walls, kept = append(walls, p.plainWall), append(kept, p.kept)
			record(p)
		}
		metrics = endToEndMetrics(passes, setupS.median)
		raw = map[string]interface{}{
			"pass_wall_s": median(walls),
			"kept_share":  median(kept),
			"jobs_per_s":  float64(attemptedIn(passes)) / time.Since(start).Seconds(),
		}
	}
	closed = true
	if err := inst.close(); err != nil {
		return err
	}
	if *trace == 0 {
		rss, err := peakRSS()
		if err != nil {
			return err
		}
		metrics["peak_rss_bytes"] = rss
	}

	attempted, failed := attemptedIn(passes), 0
	for _, p := range passes {
		failed += p.failed
	}
	if attempted == 0 {
		return errors.New("no item was attempted")
	}
	printEnv(wl.name, cfg, *trace, setupS.reps, passes, raw, attempted, failed)
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	return printResult(defs, metrics, attempted, failed)
}

// setupTimes are a run's set-up repetitions in wall seconds, and the
// median of the part of each the vCPUs kept.
type setupTimes struct {
	reps   []float64
	median float64
}

// setUp builds the workload setupReps times and keeps the last instance.
func setUp(wl workload, cfg config) (instance, setupTimes, error) {
	var st setupTimes
	var kept []float64
	var inst instance
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, st, err
			}
		}
		mark := markSteal()
		var err error
		inst, err = wl.setup(cfg.seed, cfg)
		if err != nil {
			return nil, st, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		wall, share := mark.kept()
		st.reps = append(st.reps, wall)
		kept = append(kept, wall*share)
	}
	st.median = median(kept)
	return inst, st, nil
}

// endToEndMetrics derives the end-to-end metrics (all but peak RSS) from
// an untraced run's passes. A typical pass is each item's median latency
// over the run, summed over the input list and divided by the items in
// flight at once; per-item medians shrug off a burst of host noise that
// slows a few items of one pass.
func endToEndMetrics(passes []passResult, setupS float64) map[string]float64 {
	var perItem itemTimes
	var lats []float64
	var hit, ran int
	for _, p := range passes {
		perItem.add(p.latencies)
		lats = append(lats, p.latencies...)
		hit += p.racyHit
		ran += p.racyRan
	}
	typical := perItem.typical() / float64(passes[0].clients)
	// The p50 is the median over the items of each item's lower-quartile
	// latency: a ~1 ms service job that a burst of host noise hits takes
	// several times as long, and such bursts moved even per-item medians
	// by a quarter between runs. The p99 pools every latency of the run:
	// it is the tail.
	lows := make([]float64, len(perItem))
	for i, xs := range perItem {
		lows[i] = percentile(xs, 25)
	}
	sort.Float64s(lats)
	return map[string]float64{
		"pass_s":            typical,
		"job_latency_s.p50": median(lows),
		"job_latency_s.p99": percentileSorted(lats, 99),
		// Pooled over the run: which racy inputs a schedule-dependent
		// detector flags can change from pass to pass.
		"race_recall": ratio(float64(hit), float64(ran)),
		"setup_s":     setupS,
	}
}

// attemptedIn counts the items of passes.
func attemptedIn(passes []passResult) int {
	n := 0
	for _, p := range passes {
		n += len(p.latencies)
	}
	return n
}

// passSeed derives pass i's scheduler seed from the run seed, so every
// pass explores other schedules and the same seed repeats them.
func passSeed(seed int64, i int) int64 {
	return int64(splitmix(uint64(seed)*0x9E3779B97F4A7C15+uint64(i)) >> 1)
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// printEnv prints the environment and sample counts the result was
// measured under, and an untraced run's plain wall time and kept share,
// as one JSON object on a line of its own.
func printEnv(name string, cfg config, trace int, setupReps []float64, passes []passResult, raw map[string]interface{}, attempted, failed int) {
	env := map[string]interface{}{
		"workload":         name,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds.Seconds(),
		"trace":            trace,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"setup_reps_s":     setupReps,
		"passes":           len(passes),
		"items":            attempted,
		"items_beyond_p99": attempted - int(math.Ceil(0.99*float64(attempted))),
		"failed":           failed,
		"failed_frac":      float64(failed) / float64(attempted),
	}
	for k, v := range raw {
		env[k] = v
	}
	b, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env: %s\n", b)
}

// printResult prints the result line: exactly the metrics of defs.
func printResult(defs []metricDef, metrics map[string]float64, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := metrics[d.name] // a layer the workload does not load reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
