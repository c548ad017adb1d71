package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// These tests pin the forEachPairCtx worker-pool contract the ctxflow
// and goorphan analyzers assume: workers are WaitGroup-joined, the
// dispatcher's send races ctx.Done() so cancellation never deadlocks
// it, and a real run error is preferred over the cancellations it may
// have caused.

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
