package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// testRequest is a fast competitive cell for handler tests.
func testRequest() Request {
	return Request{
		GPU:          "G8",
		PIM:          "P1",
		Policy:       "fcfs",
		Scale:        0.02,
		MaxGPUCycles: 2_000_000,
	}
}

func postSimulate(t *testing.T, url string, req Request, wait bool) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	u := url + "/v1/simulate"
	if wait {
		u += "?wait=1"
	}
	resp, err := http.Post(u, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return view, resp.StatusCode
}

func getJob(t *testing.T, url, id string) (JobView, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	}
	return view, resp.StatusCode
}

func waitTerminal(t *testing.T, url, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view, code := getJob(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch view.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return view
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal status", id)
	return JobView{}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func TestServerSimulateAndCache(t *testing.T) {
	srv, hs := newTestServer(t, Options{Workers: 2})

	// Cold request computes.
	v1, code := postSimulate(t, hs.URL, testRequest(), true)
	if code != http.StatusOK {
		t.Fatalf("POST status %d", code)
	}
	if v1.Status != StatusDone || v1.Cached || len(v1.Result) == 0 {
		t.Fatalf("first run: %+v", v1)
	}
	var res Result
	if err := json.Unmarshal(v1.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if res.Competitive == nil || res.Digest != v1.Digest {
		t.Fatalf("result = %+v, want competitive metrics under digest %s", res, v1.Digest)
	}

	// The identical request is served from the cache, byte-identical.
	v2, _ := postSimulate(t, hs.URL, testRequest(), true)
	if v2.Status != StatusDone || !v2.Cached {
		t.Fatalf("duplicate run not cached: %+v", v2)
	}
	if !bytes.Equal(v1.Result, v2.Result) {
		t.Fatalf("cache hit returned different bytes:\n%s\n%s", v1.Result, v2.Result)
	}

	// An alias spelling shares the digest and therefore the cache entry.
	alias := testRequest()
	alias.GPU, alias.Policy = "g8", "FCFS"
	v3, _ := postSimulate(t, hs.URL, alias, true)
	if v3.Digest != v1.Digest || !v3.Cached || !bytes.Equal(v1.Result, v3.Result) {
		t.Fatalf("alias request missed the cache: digest %s vs %s, cached %v", v3.Digest, v1.Digest, v3.Cached)
	}

	m := srv.MetricsSnapshot()
	if m.Cache.Misses != 1 || m.Cache.Hits+m.Cache.Joins != 2 {
		t.Fatalf("cache stats = %+v, want 1 miss / 2 served", m.Cache)
	}
	if m.Jobs.Done != 3 || m.Jobs.Cached != 2 {
		t.Fatalf("job stats = %+v", m.Jobs)
	}
}

// TestServerEvictionRecompute forces eviction with a single-entry cache
// and checks a recomputed result is byte-identical to the first run —
// the determinism property the cache design rests on, measured through
// the full service path.
func TestServerEvictionRecompute(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 2, CacheEntries: 1})

	reqA := testRequest()
	reqB := testRequest()
	reqB.Policy = "fr-fcfs"

	v1, _ := postSimulate(t, hs.URL, reqA, true)
	if v1.Status != StatusDone {
		t.Fatalf("run A: %+v", v1)
	}
	vB, _ := postSimulate(t, hs.URL, reqB, true)
	if vB.Status != StatusDone {
		t.Fatalf("run B: %+v", vB)
	}
	// B evicted A; the same request now recomputes from scratch.
	v2, _ := postSimulate(t, hs.URL, reqA, true)
	if v2.Status != StatusDone || v2.Cached {
		t.Fatalf("run A after eviction: %+v, want a fresh computation", v2)
	}
	if !bytes.Equal(v1.Result, v2.Result) {
		t.Fatalf("recomputed result differs from the original:\n%s\n%s", v1.Result, v2.Result)
	}
}

func TestServerStandaloneKinds(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 2})
	for _, req := range []Request{
		{Kind: experiments.KindStandaloneGPU, GPU: "G8", Scale: 0.02, MaxGPUCycles: 2_000_000},
		{Kind: experiments.KindStandalonePIM, PIM: "P1", Scale: 0.02, MaxGPUCycles: 2_000_000},
	} {
		v, code := postSimulate(t, hs.URL, req, true)
		if code != http.StatusOK || v.Status != StatusDone {
			t.Fatalf("%s: status %d view %+v", req.Kind, code, v)
		}
		var res Result
		if err := json.Unmarshal(v.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Standalone == nil || res.Standalone.Cycles == 0 {
			t.Fatalf("%s: result %+v, want standalone cycles", req.Kind, res)
		}
	}
}

func TestServerAsyncAndStream(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1, StreamInterval: 10 * time.Millisecond})

	req := testRequest()
	req.Seed = 4242 // private digest so the cache cannot short-circuit
	view, code := postSimulate(t, hs.URL, req, false)
	if code != http.StatusAccepted {
		t.Fatalf("async POST status %d", code)
	}
	if view.Status != StatusQueued && view.Status != StatusRunning && view.Status != StatusDone {
		t.Fatalf("async view: %+v", view)
	}

	// The SSE stream must end with a done event carrying the result.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var events, doneEvents int
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events++
			if event == "done" {
				doneEvents++
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if doneEvents != 1 {
		t.Fatalf("saw %d done events in %d events, want exactly 1", doneEvents, events)
	}
	var final JobView
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatalf("done event payload: %v", err)
	}
	if final.Status != StatusDone || len(final.Result) == 0 {
		t.Fatalf("final stream view: %+v", final)
	}
}

func TestServerCancelJob(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})

	// A paper-scale cell runs for far longer than this test; cancel must
	// cut it short (queued or mid-simulation) without caching anything.
	big := Request{GPU: "G8", PIM: "P1", Policy: "fcfs", Full: true, Seed: 1001}
	victim, code := postSimulate(t, hs.URL, big, false)
	if code != http.StatusAccepted {
		t.Fatalf("big POST status %d", code)
	}
	resp, err := newDeleteRequest(hs.URL + "/v1/jobs/" + victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp != http.StatusOK {
		t.Fatalf("DELETE status %d", resp)
	}
	if v := waitTerminal(t, hs.URL, victim.ID); v.Status != StatusCanceled {
		t.Fatalf("canceled job reached %q: %s", v.Status, v.Error)
	}

	// The worker freed by the cancellation still serves new jobs, and
	// the abandoned digest recomputes instead of replaying the failure.
	after := testRequest()
	after.Seed = 1002
	if v, _ := postSimulate(t, hs.URL, after, true); v.Status != StatusDone {
		t.Fatalf("post-cancel job reached %q: %s", v.Status, v.Error)
	}
}

// TestServerJoinerOutlivesOwner: a job that joined another job's
// computation is not bound by that job's own end. The owner waits in
// the queue behind a paper-scale blocker and is canceled, or times out,
// there; the joiner, whose own context is still live, then computes the
// result itself instead of inheriting the owner's error.
func TestServerJoinerOutlivesOwner(t *testing.T) {
	for _, tc := range []struct {
		name      string
		timeoutMS int64 // the owner's own timeout; 0 cancels it instead
		owner     string
	}{
		{"owner-canceled", 0, StatusCanceled},
		{"owner-timed-out", 1, StatusFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, hs := newTestServer(t, Options{Workers: 1})
			blocker, _ := postSimulate(t, hs.URL, Request{GPU: "G8", PIM: "P1", Policy: "fcfs", Full: true, Seed: 3001}, false)
			req := testRequest()
			req.Seed = 3002
			ownerReq := req
			ownerReq.TimeoutMS = tc.timeoutMS
			owner, _ := postSimulate(t, hs.URL, ownerReq, false)
			joiner, _ := postSimulate(t, hs.URL, req, false)
			if m := srv.MetricsSnapshot(); m.Cache.Joins != 1 {
				t.Fatalf("the second request did not join the first: %+v", m.Cache)
			}
			if tc.timeoutMS == 0 {
				if code, err := newDeleteRequest(hs.URL + "/v1/jobs/" + owner.ID); err != nil || code != http.StatusOK {
					t.Fatalf("DELETE owner: %d %v", code, err)
				}
			}
			// Free the worker: it pops the owner, already ended.
			if code, err := newDeleteRequest(hs.URL + "/v1/jobs/" + blocker.ID); err != nil || code != http.StatusOK {
				t.Fatalf("DELETE blocker: %d %v", code, err)
			}
			if v := waitTerminal(t, hs.URL, owner.ID); v.Status != tc.owner {
				t.Fatalf("owner reached %q, want %q: %s", v.Status, tc.owner, v.Error)
			}
			if v := waitTerminal(t, hs.URL, joiner.ID); v.Status != StatusDone || len(v.Result) == 0 {
				t.Fatalf("joiner reached %q, want done: %s", v.Status, v.Error)
			}
		})
	}
}

func newDeleteRequest(url string) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

func TestServerRejects(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1, MaxScale: 0.1})

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed", `{`, http.StatusBadRequest},
		{"unknown-field", `{"gpu":"G8","pim":"P1","policy":"fcfs","warp":9}`, http.StatusBadRequest},
		// The engine selector left the wire format with the -engine flags;
		// naming it is now an unknown field, not a silently ignored one.
		{"removed-engine-field", `{"gpu":"G8","pim":"P1","policy":"fcfs","engine":"tick"}`, http.StatusBadRequest},
		{"bad-policy", `{"gpu":"G8","pim":"P1","policy":"magic"}`, http.StatusBadRequest},
		// The SMS-style batch scheduler left the library; its name is now
		// an unknown policy like any other. This row and bad-priority set
		// a scale within MaxScale, so the default scale (1.0) cannot be
		// what rejects them.
		{"removed-policy-sms-batch", `{"gpu":"G8","pim":"P1","policy":"sms-batch","scale":0.05}`, http.StatusBadRequest},
		{"over-scale", `{"gpu":"G8","pim":"P1","policy":"fcfs","scale":0.5}`, http.StatusBadRequest},
		{"bad-priority", `{"gpu":"G8","pim":"P1","policy":"fcfs","scale":0.05,"priority":"urgent"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if _, code := getJob(t, hs.URL, "j-99999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	var m Metrics
	mresp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Errorf("metrics payload: %v", err)
	}
	if m.Workers.Total != 1 {
		t.Errorf("metrics workers = %+v", m.Workers)
	}
}

// TestServerCloseMarksQueuedJobs verifies shutdown drains the queue:
// jobs still queued when Close runs end as canceled, not stuck.
func TestServerCloseMarksQueuedJobs(t *testing.T) {
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var jobs []*Job
	for i := 0; i < 4; i++ {
		req := testRequest()
		req.Seed = int64(2000 + i)
		c := mustCanon(t, req)
		j := srv.newJob(c, ClassBulk, 0)
		entry, out := srv.cache.Lookup(j.Digest)
		if out != OutcomeMiss {
			t.Fatalf("job %d: outcome %v", i, out)
		}
		j.entry = entry
		if err := srv.q.Push(j); err != nil {
			t.Fatalf("push %d failed: %v", i, err)
		}
		jobs = append(jobs, j)
	}

	srv.Close()
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not terminal after Close", i)
		}
		v := j.View(false)
		if v.Status != StatusCanceled && v.Status != StatusDone {
			t.Fatalf("job %d status %q after Close", i, v.Status)
		}
	}
}

// TestServerHugeTimeoutClamped: a timeout_ms past the server's
// JobTimeout takes JobTimeout, however large: 18446744073710 ms would
// wrap to under a millisecond as a Duration and fail the job at once.
func TestServerHugeTimeoutClamped(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	req := testRequest()
	req.Seed = 5001
	req.TimeoutMS = 18446744073710
	if v, code := postSimulate(t, hs.URL, req, true); code != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("timeout_ms %d: status %d, job %q: %s", req.TimeoutMS, code, v.Status, v.Error)
	}
}

// TestServerProgressFollowsContendedRun: a competitive job's baselines
// run beside its contended run, and its progress reports the contended
// run alone — never a baseline's stage.
func TestServerProgressFollowsContendedRun(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	// A paper-scale cell runs far longer than this test watches it.
	job, code := postSimulate(t, hs.URL, Request{GPU: "G8", PIM: "P1", Policy: "fcfs", Full: true, Seed: 5002}, false)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	defer func() {
		if code, err := newDeleteRequest(hs.URL + "/v1/jobs/" + job.ID); err != nil || code != http.StatusOK {
			t.Errorf("DELETE: %d %v", code, err)
		}
		if v := waitTerminal(t, hs.URL, job.ID); v.Status != StatusCanceled {
			t.Errorf("job reached %q, want canceled: %s", v.Status, v.Error)
		}
	}()
	seen := 0
	for deadline := time.Now().Add(30 * time.Second); seen < 20 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		v, _ := getJob(t, hs.URL, job.ID)
		if v.Status != StatusQueued && v.Status != StatusRunning {
			t.Fatalf("job reached %q while watched: %s", v.Status, v.Error)
		}
		if v.Progress == nil || v.Progress.Stage == "" {
			continue
		}
		if v.Progress.Stage != experiments.KindCompetitive {
			t.Fatalf("progress stage %q, want %q", v.Progress.Stage, experiments.KindCompetitive)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("the job never reported the competitive stage")
	}
}
