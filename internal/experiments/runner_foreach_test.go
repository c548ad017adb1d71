package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

// These tests pin the forEachPairCtx worker-pool contract the ctxflow
// and goorphan analyzers assume: workers are WaitGroup-joined, the
// dispatcher's send races ctx.Done() so cancellation never deadlocks
// it, the first run error stops the pool as it stops a serial run, and
// a real run error is preferred over the cancellations it may have
// caused.

func TestForEachPairCtxAllPairs(t *testing.T) {
	r := &Runner{Parallel: 3}
	var mu sync.Mutex
	got := map[int]bool{}
	err := r.forEachPairCtx(context.Background(), 6, func(i int) error {
		mu.Lock()
		got[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("ran %d pairs, want 6: %v", len(got), got)
	}
}

func TestForEachPairCtxErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &Runner{Parallel: 2}
	boom := errors.New("boom")
	var once sync.Once
	err := r.forEachPairCtx(ctx, 4, func(int) error {
		var first bool
		once.Do(func() { first = true })
		if first {
			cancel() // the failure also cancels the sweep
			return boom
		}
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the run error to win over the cancellations it caused", err)
	}
}

func TestForEachPairCtxCancelReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &Runner{Parallel: 2}
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- r.forEachPairCtx(ctx, 4, func(int) error {
			started <- struct{}{}
			<-release
			return nil
		})
	}()
	// Both workers are mid-job, so the dispatcher is blocked handing
	// over job three; cancellation must unblock it.
	<-started
	<-started
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("forEachPairCtx did not return after cancellation")
	}
	// The undispatched jobs must not have run.
	close(started)
	n := 2
	for range started {
		n++
	}
	if n > 3 {
		t.Fatalf("%d jobs ran after two pre-cancel starts; cancellation should stop dispatch", n)
	}
}

func TestForEachPairCtxStopsAfterRunError(t *testing.T) {
	r := &Runner{Parallel: 2}
	boom := errors.New("boom")
	var ran atomic.Int32
	err := r.forEachPairCtx(context.Background(), 8, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the run error", err)
	}
	if n := ran.Load(); n > int32(r.Parallel) {
		t.Fatalf("%d of 8 jobs ran after job 0 failed; at most %d (one per worker) may", n, r.Parallel)
	}
}

// opaqueCtx never ends, and hides from the context package that it
// never does: a context.WithCancel beneath it is watched by a goroutine
// of its own, which only the child's cancel func stops. A cancel func
// dropped without being called is then a goroutine still running.
type opaqueCtx struct {
	context.Context
	done chan struct{}
}

func (c opaqueCtx) Done() <-chan struct{} { return c.done }

// TestCancelFuncsCalled: the contexts the worker pool, a cold pair and a
// run under a per-run deadline derive are cancelled by the time they
// return, so nothing goes on watching the caller's context. The deadline
// is a minute away, so a dropped cancel of the run's timeout context
// leaves its watcher running well past the check.
func TestCancelFuncsCalled(t *testing.T) {
	r := NewRunner(quickRunner().Cfg, 0.05)
	r.Parallel = 2
	timed := NewRunner(quickRunner().Cfg, 0.05)
	timed.RunTimeout = time.Minute
	cfg, sys := buildCompetitiveSystem(t, timed, core.Factory("f3fs", timed.Cfg.Sched), config.VC1)
	for _, c := range []struct {
		name string
		op   func(ctx context.Context) error
	}{
		{"worker-pool", func(ctx context.Context) error {
			return r.forEachPairCtx(ctx, 4, func(int) error { return nil })
		}},
		{"cold-pair", func(ctx context.Context) error {
			_, err := r.CompetitiveCtx(ctx, "G8", "P1", "f3fs", config.VC1)
			return err
		}},
		{"run-timeout", func(ctx context.Context) error {
			_, err := timed.runSystem(ctx, sys, Cell{GPU: "G8", PIM: "P1", Policy: "f3fs", Cfg: cfg})
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			if err := c.op(opaqueCtx{context.Background(), make(chan struct{})}); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after, %d before: a derived context was never cancelled", n, before)
			}
		})
	}
}
