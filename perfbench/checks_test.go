package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	apiv1 "repro/api/v1"
	"repro/internal/machine"
	"repro/internal/predict"
	"repro/internal/workloads"
)

// TestMain runs the tests from the checkout root, where the benchmark
// itself runs (the Go source corpus path is relative to it).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestCheckKernel(t *testing.T) {
	waw := &machine.RaceError{Kind: machine.WAW}
	cases := []struct {
		name   string
		racy   bool
		want   uint64
		err    error
		hash   uint64
		wantOK bool
	}{
		{"matching hash", false, 7, nil, 7, true},
		{"tampered hash", false, 8, nil, 7, false},
		{"race-free run raced", false, 7, waw, 0, false},
		{"racy run raced", true, 0, waw, 0, true},
		{"racy run completed", true, 0, nil, 7, false},
		{"racy run raised WAR", true, 0, &machine.RaceError{Kind: machine.WAR}, 0, false},
		{"racy run deadlocked", true, 0, &machine.DeadlockError{}, 0, false},
	}
	for _, c := range cases {
		err := checkKernel("k", c.racy, c.want, c.err, c.hash)
		if (err == nil) != c.wantOK {
			t.Errorf("%s: checkKernel = %v, want ok=%v", c.name, err, c.wantOK)
		}
	}
}

func TestCheckPredictions(t *testing.T) {
	good := predict.Prediction{
		Kind: machine.WAW, Second: predict.Access{Addr: 64},
		Certified: true, Race: &machine.RaceError{Kind: machine.WAW, Addr: 64}, Schedule: []int{0, 1},
	}
	uncertified := good
	uncertified.Certified = false
	wrongAddr := good
	wrongAddr.Race = &machine.RaceError{Kind: machine.WAW, Addr: 72}
	noSchedule := good
	noSchedule.Schedule = nil
	if err := checkPredictions("p", &predict.Result{Predictions: []predict.Prediction{good}}); err != nil {
		t.Errorf("certified prediction rejected: %v", err)
	}
	for name, p := range map[string]predict.Prediction{
		"uncertified": uncertified, "wrong address": wrongAddr, "no schedule": noSchedule,
	} {
		if checkPredictions("p", &predict.Result{Predictions: []predict.Prediction{good, p}}) == nil {
			t.Errorf("%s prediction accepted", name)
		}
	}
}

func TestCheckRecall(t *testing.T) {
	if err := checkRecall(13, 17, 17); err != nil {
		t.Errorf("13/17 rejected: %v", err)
	}
	if checkRecall(13, 16, 17) == nil {
		t.Error("recall over 16 of 17 racy kernels accepted")
	}
	if checkRecall(18, 17, 17) == nil {
		t.Error("recall above the kernels run accepted")
	}
}

func TestCheckJob(t *testing.T) {
	job := &apiv1.Job{State: apiv1.JobDone, Runs: []apiv1.RunResult{{Outcome: apiv1.OutcomeCompleted, DeterminismHash: "0x1"}}}
	want := verdictOf(job.Runs[0])
	if err := checkJob("j", want, job); err != nil {
		t.Errorf("matching verdict rejected: %v", err)
	}
	for name, v := range map[string]verdict{
		"outcome": {outcome: apiv1.OutcomeRaceException, hash: "0x1"},
		"hash":    {outcome: apiv1.OutcomeCompleted, hash: "0x2"},
	} {
		if checkJob("j", v, job) == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
}

// TestTamperedKernelHashFailsPass shows the check reaching the result:
// a wrong reference hash turns into a failed item of the pass.
func TestTamperedKernelHashFailsPass(t *testing.T) {
	k, err := newKernelBench(1, []string{"fft", "barnes"}, workloads.ScaleTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.pass(5)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.racyHit != 1 || p.racyRan != 1 {
		t.Fatalf("untampered pass: failed=%d recall=%d/%d", p.failed, p.racyHit, p.racyRan)
	}
	k.items[0].hash ^= 1
	if p, _ = k.pass(5); p.failed != 1 || p.latencies[0] != failedLatency {
		t.Fatalf("tampered hash: failed=%d latency=%v", p.failed, p.latencies[0])
	}
}

// TestTamperedRecallFailsPass: a recall over fewer racy kernels than the
// registry holds fails the pass.
func TestTamperedRecallFailsPass(t *testing.T) {
	w, _ := workloads.ByName("raytrace")
	b := &predictBench{
		items:        []predictItem{{name: "raytrace", target: predict.WorkloadTarget(w, workloads.ScaleTest, workloads.Unmodified), kernel: true}},
		registryRacy: 1,
	}
	if p, _ := b.pass(3); p.failed != 0 {
		t.Fatalf("untampered pass failed %d", p.failed)
	}
	b.registryRacy = 2
	if p, _ := b.pass(3); p.failed != 1 {
		t.Fatalf("tampered registry count: failed=%d", p.failed)
	}
}

// TestTamperedVerdictFailsPass drives the real in-process service: a job
// whose expected verdict is tampered fails, the rest pass.
func TestTamperedVerdictFailsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a service and runs its job mix")
	}
	inst, err := setupService(2, config{outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b := inst.(*serviceBench)
	defer b.close()
	p, err := b.pass(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("untampered pass failed %d jobs", p.failed)
	}
	b.jobs[0].want.hash += "0"
	if p, _ = b.pass(1); p.failed != 1 {
		t.Fatalf("tampered verdict: failed=%d", p.failed)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the benchmark's
// metric and workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloadList))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloadList[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the benchmark", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: %s/%s vs %s/%s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestKeptShare checks the steal correction: steal on a busy vCPU takes
// its share of the time away, steal on an idle vCPU takes nothing, and a
// failed read makes the share NaN, which printResult refuses.
func TestKeptShare(t *testing.T) {
	before := []cpuTimes{{}, {}}
	for _, c := range []struct {
		name  string
		after []cpuTimes
		want  float64
	}{
		{"no steal", []cpuTimes{{busy: 100}, {busy: 20, idle: 80}}, 1},
		{"busy vCPU stolen", []cpuTimes{{busy: 80, steal: 20}, {idle: 100}}, 0.8},
		{"idle vCPU stolen", []cpuTimes{{busy: 100}, {idle: 80, steal: 20}}, 1},
		{"both stolen", []cpuTimes{{busy: 90, steal: 10}, {busy: 45, idle: 45, steal: 10}}, 0.9},
	} {
		if got := keptShare(before, c.after); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: kept share %v, want %v", c.name, got, c.want)
		}
	}
	if got := keptShare(nil, before); !math.IsNaN(got) {
		t.Errorf("failed read: kept share %v, want NaN", got)
	}
	if _, err := readCPUTimes(); err != nil {
		t.Fatal(err)
	}
}
