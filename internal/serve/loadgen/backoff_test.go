package loadgen

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// TestPostCancelDuringBackoff pins the stoppable-timer backoff: a shed
// request parks the worker for the server's Retry-After (30s here), and
// canceling the run must end the wait immediately instead of sleeping
// it out — the ctxflow discipline, checked at runtime.
func TestPostCancelDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	_, _, err := post(ctx, srv.Client(), srv.URL,
		serve.Request{Kind: experiments.KindCompetitive}, 3, rand.New(rand.NewSource(1)))
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("post returned nil error after cancellation mid-backoff")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("post took %v to notice cancellation; the backoff must race ctx.Done()", elapsed)
	}
}
