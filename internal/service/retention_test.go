package service

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	apiv1 "repro/api/v1"
)

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedJobsReleaseResolvedState serves gosource jobs in-process and
// bounds the live heap each finished job keeps. A finished job serves only
// its spec, runs and trace; the lowered program, the built target and the
// run config must go at JobDone, or a long-lived cleand grows by the
// resolved program of every job it ever served.
func TestFinishedJobsReleaseResolvedState(t *testing.T) {
	src, err := os.ReadFile("../../testdata/gosrc/bankrace.go")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, QueueDepth: 8})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	sess, err := srv.CreateSession(apiv1.SessionConfig{Detection: apiv1.DetectionCLEAN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			j, err := srv.Submit(sess.ID, apiv1.JobSpec{GoSource: string(src)}, "")
			if err != nil {
				t.Fatal(err)
			}
			if j, err = srv.Job(sess.ID, j.ID, time.Minute); err != nil || j.State != apiv1.JobDone {
				t.Fatalf("job %s: state %q, err %v", j.ID, j.State, err)
			}
		}
	}
	serve(5) // warm one-time caches (gofront's sync API, metric handles)
	const n = 150
	before := liveHeap()
	serve(n)
	perJob := float64(liveHeap()-before) / n
	t.Logf("%.0f B live per finished job", perJob)

	// Measured on amd64 (go1.24): ≈2.1 KB a job with the release, ≈3.1 KB
	// without it (the lowered program, its target closure and config).
	const bound = 2600.0
	if perJob > bound {
		t.Errorf("each finished gosource job keeps %.0f B live, want ≤ %.0f", perJob, bound)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for id, j := range srv.sessions[sess.ID].jobs {
		if j.run != nil {
			t.Fatalf("finished job %s still holds its resolved program, target and config", id)
		}
	}
}
