package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime/debug"
	"sync"
	"testing"
)

// raceBuild reports whether the test binary was built with -race, whose
// runtime drops sync.Pool entries at random: allocation counts do not
// repeat there.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// hitPathAllocBudget bounds the heap objects one cached POST
// /v1/simulate?wait=1 costs through Handler, the test's own request and
// recorder included: about 15 % above the 38 measured. A hit that arms a
// timer, builds the kernel tables or parses the whole query exceeds it.
const hitPathAllocBudget = 44

// seededServer returns a ready server whose cache already holds a
// result for req, the JSON body that asks for it, and the result.
func seededServer(t *testing.T, req Request) (*Server, []byte, []byte) {
	t.Helper()
	srv, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	waitReady(t, srv)
	canon := mustCanon(t, req)
	result := []byte(fmt.Sprintf(`{"digest":%q,"kind":%q}`, canon.Digest(), canon.Kind))
	srv.cache.Seed(canon.Digest(), result)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return srv, body, result
}

// TestHitPathAllocBudget pins what a cached answer costs: the lookup and
// the reply, not a kernel table, a timer or a parsed query.
func TestHitPathAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("the race runtime drops sync.Pool entries at random")
	}
	srv, body, result := seededServer(t, testRequest())
	h := srv.Handler()
	serveHit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate?wait=1", bytes.NewReader(body)))
		return rec
	}
	// The first request also pays the one-time allocations: the mux's
	// pattern index, the encoder caches.
	rec := serveHit()
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusOK || !v.Cached || !bytes.Equal(v.Result, result) {
		t.Fatalf("not the cached answer (HTTP %d, %v): %s", rec.Code, err, rec.Body.Bytes())
	}
	avg := testing.AllocsPerRun(200, func() {
		if rec := serveHit(); rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
	})
	t.Logf("%.1f allocations per cached request", avg)
	if avg > hitPathAllocBudget {
		t.Errorf("a cached request allocates %.1f objects, budget %d", avg, hitPathAllocBudget)
	}
}

// TestHitCarriesNoContext: a hit finishes without a timeout context, a
// queued job gets one, and DELETE on a finished hit, from several
// clients at once, neither fails nor changes its answer.
func TestHitCarriesNoContext(t *testing.T) {
	srv, body, result := seededServer(t, testRequest())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Post(hs.URL+"/v1/simulate?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var hit JobView
	err = json.NewDecoder(resp.Body).Decode(&hit)
	resp.Body.Close()
	if err != nil || !hit.Cached || hit.Status != StatusDone {
		t.Fatalf("hit: %+v (%v)", hit, err)
	}
	j := srv.job(hit.ID)
	j.mu.Lock()
	armed := j.ctx != nil
	j.mu.Unlock()
	if armed {
		t.Fatal("a hit armed a timeout context")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := hs.URL + "/v1/jobs/" + hit.ID
			if i%2 == 0 {
				if code, err := newDeleteRequest(path); err != nil || code != http.StatusOK {
					t.Errorf("DELETE hit: %d %v", code, err)
				}
				return
			}
			resp, err := http.Get(path)
			if err != nil {
				t.Errorf("GET hit: %v", err)
				return
			}
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	v := j.View(true)
	if v.Status != StatusDone || !v.Cached || !bytes.Equal(v.Result, result) {
		t.Fatalf("after DELETE the hit reads %+v", v)
	}
	if m := srv.MetricsSnapshot(); m.Jobs.Canceled != 0 || m.Jobs.Done != 1 {
		t.Fatalf("job counters after DELETE on a hit: %+v", m.Jobs)
	}
}

// TestCancelQueuedJobRacesArm: a job canceled while dispatch queues it,
// before or after its context is armed, ends canceled; so does one
// canceled by DELETE from several clients while it waits in the queue.
func TestCancelQueuedJobRacesArm(t *testing.T) {
	srv, hs := newTestServer(t, Options{Workers: 1})
	// A paper-scale blocker holds the one worker for far longer than the
	// test, so every job below stays queued until it is canceled.
	blocker, _ := postSimulate(t, hs.URL, Request{GPU: "G8", PIM: "P1", Policy: "fcfs", Full: true, Seed: 4001}, false)

	var direct []*Job
	for i := 0; i < 8; i++ {
		req := testRequest()
		req.Seed = int64(4100 + i)
		j := srv.newJob(mustCanon(t, req), ClassBulk, 0)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.Cancel()
		}()
		if err := srv.dispatch(j); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
		wg.Wait()
		direct = append(direct, j)
	}

	req := testRequest()
	req.Seed = 4200
	queued, code := postSimulate(t, hs.URL, req, false)
	if code != http.StatusAccepted || queued.Status != StatusQueued {
		t.Fatalf("POST behind the blocker: HTTP %d, %+v", code, queued)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, err := newDeleteRequest(hs.URL + "/v1/jobs/" + queued.ID); err != nil || code != http.StatusOK {
				t.Errorf("DELETE queued: %d %v", code, err)
			}
		}()
	}
	wg.Wait()

	// Free the worker: it pops each canceled job and ends it.
	if code, err := newDeleteRequest(hs.URL + "/v1/jobs/" + blocker.ID); err != nil || code != http.StatusOK {
		t.Fatalf("DELETE blocker: %d %v", code, err)
	}
	for i, j := range direct {
		<-j.Done()
		if v := j.View(false); v.Status != StatusCanceled {
			t.Errorf("job %d canceled during dispatch reached %q", i, v.Status)
		}
	}
	if v := waitTerminal(t, hs.URL, queued.ID); v.Status != StatusCanceled {
		t.Errorf("job canceled in the queue reached %q: %s", v.Status, v.Error)
	}
}

// TestJobIDMatchesSprintf: the job ID keeps fmt's "j-%08d" shape,
// past eight digits too.
func TestJobIDMatchesSprintf(t *testing.T) {
	for _, n := range []uint64{0, 1, 9, 10, 12345678, 99999999, 100000000, 1<<64 - 1} {
		if got, want := jobID(n), fmt.Sprintf("j-%08d", n); got != want {
			t.Errorf("jobID(%d) = %q, want %q", n, got, want)
		}
	}
}

// FuzzQueryValue: queryValue agrees with url.Values' Get on any raw
// query, escapes, repeats and malformed pairs included.
func FuzzQueryValue(f *testing.F) {
	for _, q := range []string{
		"", "wait=1", "wait=true&x=2", "x=2&wait=TRUE", "wait", "wait=",
		"w%61it=1", "wait=%31", "wait=%zz&wait=1", "wai%zz=0&wait=1",
		"wait=1;x=2&wait=0", "a;b&wait=1", "&&wait=1&", "wait=0&wait=1",
		"wait=+1", "wait+=1", "wait=1=2", "%77ait=tr%75e",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want := (&url.URL{RawQuery: raw}).Query().Get("wait")
		if got := queryValue(raw, "wait"); got != want {
			t.Fatalf("queryValue(%q) = %q, Query().Get = %q", raw, got, want)
		}
	})
}
