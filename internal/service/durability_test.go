package service

// Robustness tests for the durable/chaos-hardened server: idempotency
// dedup, panic containment with a single requeue, wall-clock deadlines,
// store-failure rejection, client retries, and in-process crash
// recovery through a real FileStore. The cross-process SIGKILL variant
// lives in the cmd/cleand e2e suite; these cover the same contracts at
// the package boundary where failure injection is precise.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/faults"
	"repro/internal/store"
)

// TestIdempotentSubmit: a repeat submission with the same key returns
// the original job — same ID, no second execution.
func TestIdempotentSubmit(t *testing.T) {
	ctx := context.Background()
	_, c := startTestServer(t, Config{Workers: 2, QueueDepth: 8})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := apiv1.JobSpec{Litmus: "waw"}
	first, err := c.SubmitWithKey(ctx, sess.ID, spec, "stable-key")
	if err != nil {
		t.Fatal(err)
	}
	if first.IdempotencyKey != "stable-key" {
		t.Errorf("job echoes key %q, want stable-key", first.IdempotencyKey)
	}
	dup, err := c.SubmitWithKey(ctx, sess.ID, spec, "stable-key")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate submission created job %s, want original %s", dup.ID, first.ID)
	}
	done, err := c.Wait(ctx, sess.ID, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Still one job in the session, and it ran once.
	got, err := c.Session(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.JobsSubmitted != 1 || done.Attempts != 1 {
		t.Errorf("session submitted=%d attempts=%d, want 1 and 1", got.JobsSubmitted, done.Attempts)
	}
	// A different key is a different job.
	other, err := c.SubmitWithKey(ctx, sess.ID, spec, "other-key")
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == first.ID {
		t.Error("distinct keys shared a job")
	}
}

// gateStore blocks each PutJob until the test releases it (with the
// error the write should return), modeling the open fsync window of a
// durable submission.
type gateStore struct {
	*store.MemStore
	enter   chan string // receives the job id as the write starts
	release chan error  // the write returns this error (nil applies it)
}

func (g *gateStore) PutJob(rec store.JobRecord, durable bool) error {
	g.enter <- rec.ID
	if err := <-g.release; err != nil {
		return err
	}
	return g.MemStore.PutJob(rec, durable)
}

// TestDuplicateSubmitWaitsForDurableAck: a duplicate submission that
// races the original's durable write must not be answered from the
// idempotency index until that write resolves — otherwise it holds an
// ack for a job that is unwound when the write fails and then 404s.
func TestDuplicateSubmitWaitsForDurableAck(t *testing.T) {
	g := &gateStore{MemStore: store.NewMemStore(), enter: make(chan string), release: make(chan error)}
	srv := newServer(Config{Workers: 1, QueueDepth: 8, Store: g})
	sess, err := srv.CreateSession(apiv1.SessionConfig{Detection: apiv1.DetectionNone})
	if err != nil {
		t.Fatal(err)
	}
	spec := apiv1.JobSpec{Litmus: "waw"}
	type res struct {
		job *apiv1.Job
		err error
	}
	orig := make(chan res, 1)
	go func() {
		j, err := srv.Submit(sess.ID, spec, "k-race")
		orig <- res{j, err}
	}()
	<-g.enter // the original's durable write is now in flight

	dup := make(chan res, 1)
	go func() {
		j, err := srv.Submit(sess.ID, spec, "k-race")
		dup <- res{j, err}
	}()
	select {
	case r := <-dup:
		t.Fatalf("duplicate answered while the original's write was pending: %+v, %v", r.job, r.err)
	case <-time.After(50 * time.Millisecond):
	}

	// The original's write fails; it is unwound, never acknowledged.
	g.release <- errors.New("injected store failure")
	r := <-orig
	var se *StoreError
	if !errors.As(r.err, &se) {
		t.Fatalf("original submit: %v, want StoreError", r.err)
	}

	// The parked duplicate takes over as a fresh submission: its own
	// durable write, its own acknowledgment.
	if id := <-g.enter; id == "" {
		t.Fatal("duplicate never reached the store")
	}
	g.release <- nil
	d := <-dup
	if d.err != nil {
		t.Fatalf("duplicate submit after takeover: %v", d.err)
	}
	snap := g.Snapshot()
	if len(snap.Jobs) != 1 || snap.Jobs[0].ID != d.job.ID {
		t.Fatalf("store holds %+v, want exactly the duplicate's job %s", snap.Jobs, d.job.ID)
	}
	if _, err := srv.Job(sess.ID, d.job.ID, 0); err != nil {
		t.Fatalf("acknowledged job not readable: %v", err)
	}
	if doc, err := srv.Session(sess.ID); err != nil || doc.JobsSubmitted != 1 {
		t.Fatalf("session %+v, %v (want 1 submitted job)", doc, err)
	}
}

// TestEnlargedQueueReportsRealCap: when boot recovery re-enqueues more
// jobs than the configured depth, the channel grows to fit them;
// Retry-After and /healthz must report occupancy against the real
// capacity, not the configured one.
func TestEnlargedQueueReportsRealCap(t *testing.T) {
	dir := t.TempDir()
	cfg := apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1}
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newServer(Config{Workers: 1, QueueDepth: 8, Store: stA})
	sess, err := srvA.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := srvA.Submit(sess.ID, apiv1.JobSpec{Litmus: "waw"}, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	stB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	srvB := newServer(Config{Workers: 1, QueueDepth: 2, Store: stB})
	h := srvB.Health()
	if h.QueueCap != 5 || h.QueueDepth != 5 {
		t.Errorf("health cap=%d depth=%d, want 5 and 5 (recovered backlog)", h.QueueCap, h.QueueDepth)
	}
	// Full occupancy against the real cap: base 1s × (1 + 5/5) = 2s. The
	// configured depth of 2 would claim 250% occupancy and advertise 4s.
	if ra := srvB.RetryAfterSeconds(); ra != 2 {
		t.Errorf("RetryAfterSeconds = %d, want 2", ra)
	}
}

// TestRetryDelayClamped: high attempt counts overflow the backoff shift;
// the delay must clamp to the cap and stay positive (the jitter draw
// panics on a non-positive bound), with and without a server hint.
func TestRetryDelayClamped(t *testing.T) {
	c := NewClient("http://unused", WithRetryPolicy(1<<30, 200*time.Millisecond, 5*time.Second))
	for _, attempt := range []int{1, 2, 40, 63, 64, 65, 1 << 20} {
		if d := c.retryDelay(attempt, 0); d <= 0 || d > 5*time.Second {
			t.Errorf("retryDelay(%d, 0) = %v, want in (0, 5s]", attempt, d)
		}
	}
	if d := c.retryDelay(1, 2); d != 2*time.Second {
		t.Errorf("retryDelay(1, 2) = %v, want the 2s hint", d)
	}
	if d := c.retryDelay(70, 3600); d != 5*time.Second {
		t.Errorf("retryDelay(70, 3600) = %v, want the 5s cap", d)
	}
}

// TestPanicContainedWithRequeue: one injected worker panic fails the
// attempt, the job is requeued once and completes with the same result
// a clean run produces; two injected panics fail the job with a
// structured contained-crash error — the process never dies either way.
func TestPanicContainedWithRequeue(t *testing.T) {
	ctx := context.Background()
	si := faults.NewServiceInjector()
	srv, c := startTestServer(t, Config{Workers: 1, QueueDepth: 8, Chaos: si})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	si.Arm(faults.ServicePlan{WorkerPanics: 1})
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Attempts != 2 {
		t.Errorf("attempts %d after one panic, want 2", job.Attempts)
	}
	if len(job.Runs) != 1 || job.Runs[0].Outcome != apiv1.OutcomeRaceException {
		t.Fatalf("retried job runs %+v, want the litmus race witness", job.Runs)
	}

	si.Arm(faults.ServicePlan{WorkerPanics: 2})
	crashed, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"})
	if err != nil {
		t.Fatal(err)
	}
	if len(crashed.Runs) != 1 || crashed.Runs[0].Outcome != apiv1.OutcomeContainedCrash {
		t.Fatalf("double-panic job runs %+v, want contained-crash", crashed.Runs)
	}
	if !strings.Contains(crashed.Runs[0].Error, "worker panic") {
		t.Errorf("contained-crash error %q lacks panic context", crashed.Runs[0].Error)
	}
	if p, _ := si.FiredCounts(); p != 3 {
		t.Errorf("%d injected panics fired, want 3", p)
	}
	snap := srv.Metrics().Metrics
	if snap.Counters["service.worker_panics"] != 3 || snap.Counters["service.jobs_requeued"] != 2 {
		t.Errorf("panic metrics %v", snap.Counters)
	}
}

// TestDeadlineExceeded: a job whose wall-clock deadline passes while an
// injected stall holds the workers completes with OutcomeDeadline
// instead of running late or pinning a worker.
func TestDeadlineExceeded(t *testing.T) {
	ctx := context.Background()
	si := faults.NewServiceInjector()
	_, c := startTestServer(t, Config{Workers: 1, QueueDepth: 8, Chaos: si})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	si.Arm(faults.ServicePlan{StallFor: 300 * time.Millisecond})
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw", DeadlineSeconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Runs) != 1 || job.Runs[0].Outcome != apiv1.OutcomeDeadline {
		t.Fatalf("stalled job runs %+v, want deadline-exceeded", job.Runs)
	}
	// With the stall window closed the same deadline is generous.
	ok, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw", DeadlineSeconds: 30})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Runs[0].Outcome != apiv1.OutcomeRaceException {
		t.Errorf("post-stall outcome %q, want race-exception", ok.Runs[0].Outcome)
	}
}

// TestDeadlineExceededMultiSeed: when the deadline passes before a
// multi-seed job starts, every per-seed run — fanned across the run pool
// — is cut off with OutcomeDeadline, and the job is counted once. Under
// -race this also pins that the concurrent per-seed runs share no
// unsynchronized state.
func TestDeadlineExceededMultiSeed(t *testing.T) {
	ctx := context.Background()
	si := faults.NewServiceInjector()
	srv, c := startTestServer(t, Config{Workers: 1, QueueDepth: 8, RunParallelism: 4, Chaos: si})

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	si.Arm(faults.ServicePlan{StallFor: 300 * time.Millisecond})
	// Enough seeds that the pool's goroutines overlap on the cut-off
	// path; with 8, -race caught the unsynchronized flag ~1 run in 15.
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	job, err := c.Run(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw", Seeds: seeds, DeadlineSeconds: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Runs) != len(seeds) {
		t.Fatalf("stalled job has %d runs, want %d", len(job.Runs), len(seeds))
	}
	for i, r := range job.Runs {
		if r.Outcome != apiv1.OutcomeDeadline || r.Seed != seeds[i] {
			t.Errorf("run %d = seed %d %q, want seed %d deadline-exceeded", i, r.Seed, r.Outcome, seeds[i])
		}
	}
	if n := srv.Metrics().Metrics.Counters["service.jobs_deadline_exceeded"]; n != 1 {
		t.Errorf("jobs_deadline_exceeded = %d, want 1", n)
	}
}

// TestStoreFailureRejectsSubmission: an injected journal failure on the
// submission path surfaces as 503 + Retry-After, the job is not
// acknowledged, and the next attempt (store healthy again) succeeds
// under the same idempotency key.
func TestStoreFailureRejectsSubmission(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	si := faults.NewServiceInjector()
	srv, c := startTestServer(t, Config{Workers: 1, QueueDepth: 8, Store: st, Chaos: si})
	raw := NewClient(c.base, WithoutRetries())

	sess, err := c.CreateSession(ctx, apiv1.SessionConfig{Detection: apiv1.DetectionNone, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	si.Arm(faults.ServicePlan{StoreErrors: 1})
	_, err = raw.SubmitWithKey(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}, "k-retry")
	var apiErr *apiv1.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit under store failure: %v, want 503 envelope", err)
	}
	if apiErr.RetryAfterSeconds < 1 {
		t.Errorf("503 RetryAfterSeconds %d, want >= 1", apiErr.RetryAfterSeconds)
	}
	// Nothing was acknowledged: the session has no jobs.
	if doc, err := c.Session(ctx, sess.ID); err != nil || doc.JobsSubmitted != 0 {
		t.Fatalf("after rejected submit: %+v, %v (want 0 jobs)", doc, err)
	}
	// The retrying client path: same key, healthy store, job runs.
	job, err := c.SubmitWithKey(ctx, sess.ID, apiv1.JobSpec{Litmus: "waw"}, "k-retry")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, sess.ID, job.ID); err != nil {
		t.Fatal(err)
	}
	snap := srv.Metrics().Metrics
	if snap.Counters["service.store_errors"] != 1 {
		t.Errorf("store_errors %d, want 1", snap.Counters["service.store_errors"])
	}
}

// TestClientRetriesHonorRetryAfter: the client retries 429s with the
// server's hint and succeeds once capacity frees up; the server sees
// every attempt.
func TestClientRetriesHonorRetryAfter(t *testing.T) {
	ctx := context.Background()
	attempts := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions/{id}/jobs", func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts <= 2 {
			e := apiv1.NewError(http.StatusTooManyRequests, "queue full")
			e.RetryAfterSeconds = 1
			w.Header().Set("Retry-After", "1")
			writeError(w, e)
			return
		}
		writeDoc(w, http.StatusAccepted, &apiv1.Job{
			Schema: apiv1.SchemaVersion, Kind: apiv1.KindJob,
			ID: "j-1", Session: r.PathValue("id"), State: apiv1.JobQueued,
			Spec: apiv1.JobSpec{Litmus: "waw"},
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// A tight cap keeps the test fast while still exercising the hint
	// path (1s hint > 20ms cap → clamped to the cap).
	c := NewClient(ts.URL, WithRetryPolicy(4, 5*time.Millisecond, 20*time.Millisecond))
	job, err := c.Submit(ctx, "s-1", apiv1.JobSpec{Litmus: "waw"})
	if err != nil {
		t.Fatalf("submit through retries: %v", err)
	}
	if job.ID != "j-1" || attempts != 3 {
		t.Errorf("job %s after %d attempts, want j-1 after 3", job.ID, attempts)
	}

	// Retries exhausted: the 429 surfaces.
	attempts = -100
	_, err = NewClient(ts.URL, WithRetryPolicy(2, time.Millisecond, 2*time.Millisecond)).
		Submit(ctx, "s-1", apiv1.JobSpec{Litmus: "waw"})
	var apiErr *apiv1.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("exhausted retries: %v, want 429 envelope", err)
	}
}

// TestRecoveryReplaysInterruptedJobs is the in-process half of the
// crash-recovery acceptance: jobs acknowledged but unfinished when the
// process dies are re-enqueued from the journal on boot and produce
// results byte-identical to an uninterrupted run; finished jobs are
// served from the store without re-running.
func TestRecoveryReplaysInterruptedJobs(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 7}

	// The uninterrupted reference run, memory-only.
	_, ref := startTestServer(t, Config{Workers: 2, QueueDepth: 8})
	refSess, err := ref.CreateSession(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRace, err := ref.Run(ctx, refSess.ID, apiv1.JobSpec{Litmus: "waw"})
	if err != nil {
		t.Fatal(err)
	}
	refClean, err := ref.Run(ctx, refSess.ID, apiv1.JobSpec{Litmus: "locked-counter"})
	if err != nil {
		t.Fatal(err)
	}

	// Server A accepts three jobs but its workers never start; the
	// process "dies" with one done (none here), two queued. Closing the
	// store models the crash boundary: everything acknowledged is on
	// disk, nothing else.
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvA := newServer(Config{Workers: 1, QueueDepth: 8, Store: stA})
	sessA, err := srvA.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobRace, err := srvA.Submit(sessA.ID, apiv1.JobSpec{Litmus: "waw"}, "key-race")
	if err != nil {
		t.Fatal(err)
	}
	jobClean, err := srvA.Submit(sessA.ID, apiv1.JobSpec{Litmus: "locked-counter"}, "key-clean")
	if err != nil {
		t.Fatal(err)
	}
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	// Server B boots from the same directory, recovers, and runs.
	stB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvB := New(Config{Workers: 2, QueueDepth: 8, Store: stB})
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srvB.Drain(dctx); err != nil {
			t.Error(err)
		}
		if err := stB.Close(); err != nil {
			t.Error(err)
		}
	}()
	if h := srvB.Health(); !h.Durable || h.RecoveredJobs != 2 {
		t.Fatalf("health after recovery: %+v, want durable with 2 recovered jobs", h)
	}

	gotRace, err := srvB.Job(sessA.ID, jobRace.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	gotClean, err := srvB.Job(sessA.ID, jobClean.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical to the uninterrupted run: same witness, same
	// determinism hash (elapsed wall time necessarily differs).
	if w, rw := gotRace.Runs[0].Witness, refRace.Runs[0].Witness; w == nil || rw == nil || *w != *rw {
		t.Errorf("recovered witness %+v, reference %+v", w, rw)
	}
	if h, rh := gotClean.Runs[0].DeterminismHash, refClean.Runs[0].DeterminismHash; h == "" || h != rh {
		t.Errorf("recovered determinism hash %q, reference %q", h, rh)
	}
	// Idempotency keys survive recovery: a repeat submission dedups
	// against the recovered (now done) job.
	dup, err := srvB.Submit(sessA.ID, apiv1.JobSpec{Litmus: "waw"}, "key-race")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != jobRace.ID {
		t.Errorf("post-recovery duplicate got job %s, want %s", dup.ID, jobRace.ID)
	}

	// Third boot: everything is done, nothing requeues, results are
	// served straight from the journal without re-execution.
	if err := srvB.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := stB.Close(); err != nil {
		t.Fatal(err)
	}
	stC, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvC := newServer(Config{Workers: 1, QueueDepth: 8, Store: stC})
	if h := srvC.Health(); h.RecoveredJobs != 0 {
		t.Errorf("third boot recovered %d jobs, want 0", h.RecoveredJobs)
	}
	done, err := srvC.Job(sessA.ID, jobRace.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != apiv1.JobDone || done.Runs[0].Witness == nil ||
		*done.Runs[0].Witness != *refRace.Runs[0].Witness {
		t.Errorf("stored result %+v, want the reference witness", done.Runs)
	}
	if err := stC.Close(); err != nil {
		t.Fatal(err)
	}
}
