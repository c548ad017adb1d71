package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// waitReady polls the server's readiness until it flips true (the warm
// load runs in the background even with persistence disabled).
func waitReady(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerPersistenceWarmStart is the in-process half of the chaos
// gate: results computed before a (graceful) restart must be served
// byte-identically from the warm cache afterwards, with the warm-start
// counters reflecting it.
func TestServerPersistenceWarmStart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 2, StoreDir: dir}

	srv1, hs1 := newTestServer(t, opts)
	waitReady(t, srv1)
	v1, code := postSimulate(t, hs1.URL, testRequest(), true)
	if code != http.StatusOK || v1.Status != StatusDone {
		t.Fatalf("first run: status %d view %+v", code, v1)
	}
	m := srv1.MetricsSnapshot()
	if !m.Store.Enabled || m.Store.Persisted != 1 || m.Store.Entries != 1 {
		t.Fatalf("store stats after first run: %+v", m.Store)
	}
	hs1.Close()
	srv1.Close()

	// Restart over the same directory: the result must come back cached
	// from the warm load, byte-identical, without recomputing.
	srv2, hs2 := newTestServer(t, opts)
	waitReady(t, srv2)
	v2, code := postSimulate(t, hs2.URL, testRequest(), true)
	if code != http.StatusOK || v2.Status != StatusDone {
		t.Fatalf("warm run: status %d view %+v", code, v2)
	}
	if !v2.Cached {
		t.Fatalf("warm run not served from cache: %+v", v2)
	}
	if string(v1.Result) != string(v2.Result) {
		t.Fatalf("warm result differs from original:\n%s\n%s", v1.Result, v2.Result)
	}

	m = srv2.MetricsSnapshot()
	if m.Store.Replayed != 1 || m.Cache.WarmLoaded != 1 {
		t.Fatalf("warm load stats: store %+v cache %+v", m.Store, m.Cache)
	}
	if m.Cache.WarmHits != 1 || m.Cache.WarmHitRate <= 0 {
		t.Fatalf("warm hit stats: %+v", m.Cache)
	}
	if m.Cache.Misses != 0 {
		t.Fatalf("warm start recomputed: %+v", m.Cache)
	}
}

// TestServerReadinessLifecycle pins the liveness/readiness split:
// /readyz is 503 before the warm load and again once draining begins,
// while /healthz stays 200 throughout.
func TestServerReadinessLifecycle(t *testing.T) {
	// Warming semantics, checked on a hand-built server so the window is
	// deterministic (the real warm load closes ready almost instantly).
	warming := &Server{ready: make(chan struct{}), drain: make(chan struct{})}
	if warming.Ready() {
		t.Fatal("Ready() true before the warm load completed")
	}

	srv, hs := newTestServer(t, Options{Workers: 1})
	waitReady(t, srv)

	getStatus := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	if code, body := getStatus("/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("/readyz while up: %d %v", code, body)
	}
	if code, body := getStatus("/healthz"); code != http.StatusOK || body["degraded"] != false {
		t.Fatalf("/healthz while up: %d %v", code, body)
	}

	// Drain flips readiness false while liveness stays up — the ordering
	// cmd/pimserve relies on (BeginDrain before the listener closes).
	srv.BeginDrain()
	if code, body := getStatus("/readyz"); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("/readyz while draining: %d %v", code, body)
	}
	if code, _ := getStatus("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining: %d", code)
	}
	if srv.Ready() {
		t.Fatal("Ready() true while draining")
	}
}

// TestServerOverloadSheds verifies admission control: beyond the
// per-class queue bound, submits are refused with 429 and a positive
// Retry-After instead of queueing unboundedly, and the shed counter
// appears in /metrics.
func TestServerOverloadSheds(t *testing.T) {
	srv, hs := newTestServer(t, Options{Workers: 1, MaxQueueBulk: 1, MaxQueueInteractive: 1})
	waitReady(t, srv)

	slow := func(seed int64) Request {
		return Request{GPU: "G8", PIM: "P1", Policy: "fcfs", Full: true, Seed: seed, Priority: PriorityBulk}
	}

	// Occupy the single worker, then wait until the queue is empty again
	// so the next submits deterministically land in the admission queue.
	if _, code := postSimulate(t, hs.URL, slow(9001), false); code != http.StatusAccepted {
		t.Fatalf("first slow job: status %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := srv.MetricsSnapshot()
		if m.Workers.Busy == 1 && m.Queue.BulkDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never picked up the slow job: %+v", m.Queue)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Second job fills the class's one queue slot.
	if _, code := postSimulate(t, hs.URL, slow(9002), false); code != http.StatusAccepted {
		t.Fatalf("queued job: status %d", code)
	}

	// Third job is shed: 429 plus a parseable, positive Retry-After.
	body, _ := json.Marshal(slow(9003))
	resp, err := http.Post(hs.URL+"/v1/simulate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	m := srv.MetricsSnapshot()
	if m.Queue.ShedBulk != 1 || m.Queue.ShedInteractive != 0 {
		t.Fatalf("shed counters = %d/%d, want 1 bulk", m.Queue.ShedBulk, m.Queue.ShedInteractive)
	}
}

// TestServerDrainStreamTerminal verifies an SSE stream open across
// BeginDrain ends with an explicit terminal event (shutdown or done),
// never a mid-stream EOF.
func TestServerDrainStreamTerminal(t *testing.T) {
	srv, hs := newTestServer(t, Options{Workers: 1, StreamInterval: 10 * time.Millisecond})
	waitReady(t, srv)

	big := Request{GPU: "G8", PIM: "P1", Policy: "fcfs", Full: true, Seed: 7001}
	view, code := postSimulate(t, hs.URL, big, false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)

	// Read one progress event, then begin the drain mid-stream.
	events := make(chan string, 16)
	go func() {
		defer close(events)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
	}()
	select {
	case ev := <-events:
		if ev != "job" {
			t.Fatalf("first stream event %q, want job", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no stream event before drain")
	}
	srv.BeginDrain()

	last := ""
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				if last != "shutdown" && last != "done" {
					t.Fatalf("stream ended after %q, want a terminal shutdown/done event", last)
				}
				if err := sc.Err(); err != nil {
					t.Fatalf("stream read: %v", err)
				}
				return
			}
			last = ev
		case <-deadline:
			t.Fatal("stream did not terminate after BeginDrain")
		}
	}
}

// TestServerMetricsExposeRobustness asserts the robustness fields ride
// the public /metrics JSON: readiness, degraded flag, per-class shed
// counts, and the store's replay/skip counters.
func TestServerMetricsExposeRobustness(t *testing.T) {
	srv, hs := newTestServer(t, Options{Workers: 1, StoreDir: t.TempDir()})
	waitReady(t, srv)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("metrics payload: %v", err)
	}

	for _, key := range []string{"ready", "degraded", "queue", "cache", "store"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	queue, _ := m["queue"].(map[string]any)
	for _, key := range []string{"shed_interactive", "shed_bulk"} {
		if _, ok := queue[key]; !ok {
			t.Errorf("metrics queue missing %q", key)
		}
	}
	cache, _ := m["cache"].(map[string]any)
	for _, key := range []string{"warm_loaded", "warm_hits", "warm_hit_rate"} {
		if _, ok := cache[key]; !ok {
			t.Errorf("metrics cache missing %q", key)
		}
	}
	st, _ := m["store"].(map[string]any)
	for _, key := range []string{"enabled", "entries", "bytes", "replayed",
		"skipped_corrupt", "skipped_verify", "persisted", "degraded"} {
		if _, ok := st[key]; !ok {
			t.Errorf("metrics store missing %q", key)
		}
	}
	if st["enabled"] != true {
		t.Errorf("store.enabled = %v, want true with StoreDir set", st["enabled"])
	}
	if m["ready"] != true {
		t.Errorf("ready = %v, want true", m["ready"])
	}
}
