package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
)

// TestBuildScheduleDeterministic: the schedule is a pure function of the
// profile, so repeated builds are identical — the property that makes
// load runs comparable across machines and CI runs.
func TestBuildScheduleDeterministic(t *testing.T) {
	p := Short()
	a := BuildSchedule(p)
	b := BuildSchedule(p)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildSchedule is not deterministic for a fixed profile")
	}

	p2 := p
	p2.Seed++
	c := BuildSchedule(p2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("BuildSchedule ignores the profile seed")
	}
}

func TestBuildScheduleShape(t *testing.T) {
	p := Short()
	reqs := BuildSchedule(p)
	if len(reqs) != p.Requests {
		t.Fatalf("schedule has %d requests, want %d", len(reqs), p.Requests)
	}

	var cold, bulk int
	digests := map[string]bool{}
	for i, r := range reqs {
		if r.Seed != 0 {
			cold++
		}
		if r.Priority == serve.PriorityBulk {
			bulk++
		}
		c, err := serve.Canonicalize(r)
		if err != nil {
			t.Fatalf("request %d does not canonicalize: %v", i, err)
		}
		digests[c.Digest()] = true
	}

	// Roughly DupFraction of requests duplicate the hot set; the rest
	// carry unique seeds. Allow generous slack around the expectation.
	wantCold := float64(p.Requests) * (1 - p.DupFraction)
	if float64(cold) < wantCold*0.4 || float64(cold) > wantCold*2.5 {
		t.Errorf("%d cold requests, expected about %.0f", cold, wantCold)
	}
	if bulk == 0 || bulk == p.Requests {
		t.Errorf("bulk mix degenerate: %d of %d", bulk, p.Requests)
	}
	// Unique digests = hot set + one per cold request.
	if want := p.HotSet + cold; len(digests) != want {
		t.Errorf("%d unique digests, want %d (hot %d + cold %d)", len(digests), want, p.HotSet, cold)
	}
}

// TestRunRetriesSheddedRequests stands up a stub server that sheds the
// first attempt of every submit with 429 and serves the retry, then
// checks Run recovers every request and accounts the retries — the
// client half of the admission-control contract.
func TestRunRetriesSheddedRequests(t *testing.T) {
	var attempts int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			fmt.Fprint(w, `{"cache":{"hit_rate":1}}`)
			return
		}
		if atomic.AddInt64(&attempts, 1)%2 == 1 {
			w.Header().Set("Retry-After", "0") // unparseable-as-positive: pure backoff
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"serve: queue full"}`)
			return
		}
		fmt.Fprint(w, `{"id":"j-1","status":"done","digest":"d1","result":{"ok":true}}`)
	}))
	defer hs.Close()

	p := Profile{Requests: 3, Concurrency: 1, HotSet: 1, Scale: 0.02, MaxRetries: 2, Seed: 7}
	rep, err := Run(context.Background(), nil, hs.URL, p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed != 0 || rep.Succeeded != p.Requests {
		t.Fatalf("report %+v, want every shed request recovered by retry", rep)
	}
	if rep.Retries != p.Requests {
		t.Fatalf("retries = %d, want %d (one per request)", rep.Retries, p.Requests)
	}
}

// bodyCounter is an http.RoundTripper that counts the response bodies
// it hands out and the ones closed.
type bodyCounter struct {
	next           http.RoundTripper
	opened, closed atomic.Int64
}

func (b *bodyCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := b.next.RoundTrip(req)
	if err == nil {
		b.opened.Add(1)
		resp.Body = &countedBody{ReadCloser: resp.Body, closed: &b.closed}
	}
	return resp, err
}

type countedBody struct {
	io.ReadCloser
	closed *atomic.Int64
}

func (c *countedBody) Close() error {
	c.closed.Add(1)
	return c.ReadCloser.Close()
}

// TestRunClosesEveryBody: every response body Run receives — a shed
// submit's, a served submit's and the final /metrics fetch's — is
// closed by the time Run returns.
func TestRunClosesEveryBody(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			fmt.Fprint(w, `{"cache":{"hit_rate":1}}`)
			return
		}
		if attempts.Add(1)%2 == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"serve: queue full"}`)
			return
		}
		fmt.Fprint(w, `{"id":"j-1","status":"done","digest":"d1","result":{"ok":true}}`)
	}))
	defer hs.Close()

	bodies := &bodyCounter{next: hs.Client().Transport}
	p := Profile{Requests: 4, Concurrency: 2, HotSet: 1, Scale: 0.02, MaxRetries: 2, Seed: 7}
	rep, err := Run(context.Background(), &http.Client{Transport: bodies}, hs.URL, p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Succeeded != p.Requests || rep.Retries == 0 {
		t.Fatalf("report %+v, want every request served after a shed", rep)
	}
	// One body per attempt plus the /metrics fetch.
	if opened, closed := bodies.opened.Load(), bodies.closed.Load(); opened != int64(p.Requests+rep.Retries+1) || closed != opened {
		t.Errorf("%d response bodies opened, %d closed; want %d, all closed", opened, closed, p.Requests+rep.Retries+1)
	}
}

// TestRunRetriesExhausted: with retries disabled a shed request is a
// failure, not an infinite loop.
func TestRunRetriesExhausted(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			fmt.Fprint(w, `{"cache":{"hit_rate":0}}`)
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"serve: queue full"}`)
	}))
	defer hs.Close()

	p := Profile{Requests: 2, Concurrency: 1, HotSet: 1, Scale: 0.02, MaxRetries: 0, Seed: 7}
	rep, err := Run(context.Background(), nil, hs.URL, p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Failed != p.Requests || rep.Retries != 0 {
		t.Fatalf("report %+v, want every request failed without retries", rep)
	}
}
