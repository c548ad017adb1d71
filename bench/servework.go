package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/store"
)

// serveSizes fixes the serve_mixed phases. The store is seeded with
// Records synthetic results, then: Cold unique requests from one client,
// Joins rounds of two identical requests in flight together, and a hit
// phase of HitFor in which two closed-loop clients re-request what the
// first two phases computed, BulkShare of it at bulk priority.
type serveSizes struct {
	Records   int
	Cold      int
	Joins     int
	HitFor    time.Duration
	Scale     float64
	BulkShare float64
}

// serveScale keeps a cold simulation around 30 ms, so the cold phase is
// dominated by the simulator as seen through the service and still fits
// a hundred-odd requests into a run.
const serveScale = 0.05

// hitTraceEvery thins the hit phase's spans: a traced run records one
// request in this many, or the trace would hold a million spans.
const hitTraceEvery = 32

// defaultServeSizes shares a run of the given length between the phases:
// about two fifths of it cold (a cold request takes some 33 ms), a second
// of joins, three tenths hits.
func defaultServeSizes(seconds float64) serveSizes {
	return serveSizes{
		Records: 2000, Cold: int(12 * seconds), Joins: 24,
		HitFor: time.Duration(seconds * 0.3 * float64(time.Second)),
		Scale:  serveScale, BulkShare: 0.3,
	}
}

// serveEnv is a booted in-process pimserve behind an HTTP listener.
type serveEnv struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

// serveRequest builds the i-th competitive request of a run: the kernel,
// policy and VC mode cycle through the coexec matrix and the config seed
// makes every request a distinct simulation.
func serveRequest(seed int64, i int, scale float64) serve.Request {
	return serve.Request{
		GPU:    coexecGPUs[i%len(coexecGPUs)],
		PIM:    coexecPIMs[(i/3)%len(coexecPIMs)],
		Policy: coexecPolicies[(i/6)%len(coexecPolicies)],
		Mode:   vcModes[(i/24)%len(vcModes)].String(),
		Scale:  scale,
		Seed:   seed*1_000_003 + int64(i) + 1,
	}
}

// seedStore writes n synthetic verified records — real canonical requests
// with made-up results — so the server has a warm load to replay.
func seedStore(dir string, seed int64, n int, tr *Tracer) error {
	sp := tr.Start("store.Open", 0, 0)
	st, err := store.Open(store.Options{Dir: dir})
	tr.End(sp)
	if err != nil {
		return err
	}
	defer st.Close()
	for i := 0; i < n; i++ {
		// Seeds far from the ones the phases use keep the synthetic
		// digests from colliding with requested ones.
		canon, err := serve.Canonicalize(serveRequest(seed+1_000_000, i, serveScale))
		if err != nil {
			return err
		}
		cj, err := json.Marshal(canon)
		if err != nil {
			return err
		}
		result, err := json.Marshal(serve.Result{
			Digest: canon.Digest(), Kind: canon.Kind, GPU: canon.GPUID, PIM: canon.PIMID,
			Policy: canon.Policy, Mode: canon.Mode, Scale: canon.Scale,
			Competitive: &serve.CompetitiveResult{GPUSpeedup: 0.5, PIMSpeedup: 0.5, Fairness: 1, Throughput: 1, Switches: uint64(i)},
		})
		if err != nil {
			return err
		}
		sp := tr.Start("store.Put", i, 0)
		ok := st.Put(canon.Digest(), cj, result)
		tr.End(sp)
		if !ok {
			return fmt.Errorf("bench: store refused synthetic record %d", i)
		}
	}
	return nil
}

// newServeEnv is serve_mixed's set-up: populate a fresh store directory
// under parent, then boot the server (one worker, fsync on — the
// production default) and wait until its warm load is done.
func newServeEnv(parent string, seed int64, records int, tr *Tracer) (*serveEnv, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if err := seedStore(dir, seed, records, tr); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sp := tr.Start("serve.New+Ready", 0, 0)
	srv, err := serve.New(serve.Options{Workers: 1, StoreDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for !srv.Ready() {
		time.Sleep(50 * time.Microsecond)
	}
	tr.End(sp)
	e := &serveEnv{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}
	e.client = e.ts.Client()
	return e, nil
}

// Close stops the listener and the server and removes the store.
func (e *serveEnv) Close() {
	e.ts.Close()
	e.srv.Close()
	os.RemoveAll(e.dir)
}

// post sends one simulate request and waits for its terminal view.
func (e *serveEnv) post(body []byte) (serve.JobView, error) {
	var view serve.JobView
	resp, err := e.client.Post(e.ts.URL+"/v1/simulate?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return view, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return view, err
	}
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &view); err != nil {
		return view, err
	}
	return view, nil
}

// served is one computed result the hit phase may ask for again.
type served struct {
	interactive, bulk []byte // request bodies at the two priorities
	result            []byte
}

// serveRun accumulates one run of the phases against a booted server.
type serveRun struct {
	sizes serveSizes
	seed  int64
	env   *serveEnv
	// request generates the i-th distinct request of the run.
	request func(i int) serve.Request

	done      []served
	Attempted int
	Failed    int
	Notes     []string

	ColdMS, ColdRunMS []float64 // client latency and the job's own run_ms
	ColdNormMS        []float64 // client latency over the host's slowness
	JoinOverheadMS    []float64 // joiner's completion minus leader's
	DuplicateSims     int64
}

// hitResult is one hit phase.
type hitResult struct {
	US      []float64 // client latencies
	Wall    time.Duration
	Mallocs uint64
	Bytes   uint64
	GCs     uint32
}

func newServeRun(env *serveEnv, seed int64, sizes serveSizes) *serveRun {
	return &serveRun{
		sizes: sizes, seed: seed, env: env,
		request: func(i int) serve.Request { return serveRequest(seed, i, sizes.Scale) },
	}
}

func (r *serveRun) fail(format string, a ...any) {
	r.Failed++
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
	}
}

// bodies marshals request i at both priorities.
func (r *serveRun) bodies(i int) (interactive, bulk []byte) {
	req := r.request(i)
	interactive, _ = json.Marshal(req) // a struct of strings and numbers cannot fail to marshal
	req.Priority = serve.PriorityBulk
	bulk, _ = json.Marshal(req)
	return interactive, bulk
}

// checkView applies check (d) to one response.
func (r *serveRun) checkView(what string, v serve.JobView, err error, wantCached bool, want []byte) bool {
	r.Attempted++
	switch {
	case err != nil:
		r.fail("%s: %v", what, err)
	case v.Status != serve.StatusDone:
		r.fail("%s: status %s (%s)", what, v.Status, v.Error)
	case v.Cached != wantCached:
		r.fail("%s: cached=%v, want %v", what, v.Cached, wantCached)
	case want != nil && !bytes.Equal(v.Result, want):
		r.fail("%s: result bytes differ for digest %.12s", what, v.Digest)
	default:
		return true
	}
	return false
}

// expectCounters compares the server's own cache counters over a phase
// with what the client side saw: cached answers (a hit or a join; the
// client cannot tell them apart, and a join-phase follower that arrives
// after its leader finished is served a hit) and computed ones.
func (r *serveRun) expectCounters(phase string, before serve.CacheStats, cached, misses uint64) {
	after := r.env.srv.MetricsSnapshot().Cache
	if got := (after.Hits - before.Hits) + (after.Joins - before.Joins); got != cached {
		r.fail("%s phase: server counted %d cache hits and joins, clients saw %d cached answers", phase, got, cached)
	}
	if got := after.Misses - before.Misses; got != misses {
		r.fail("%s phase: server counted %d cache misses, clients saw %d computed answers", phase, got, misses)
	}
	r.DuplicateSims += int64(after.Misses-before.Misses) - int64(misses)
}

// cold posts the unique requests [from, to) from one client: every one is
// a miss that runs its simulations and persists before it answers. m
// probes the host after every request.
func (r *serveRun) cold(tr *Tracer, from, to int, m *hostMeter) {
	before := r.env.srv.MetricsSnapshot().Cache
	for i := from; i < to; i++ {
		ia, bulk := r.bodies(i)
		root := tr.Start("request.cold", i, 0)
		sp := tr.Start("http.post", i, root)
		start := time.Now()
		v, err := r.env.post(ia)
		lat := time.Since(start)
		tr.End(sp)
		tr.End(root)
		slow := m.lap()
		if r.checkView("cold", v, err, false, nil) {
			r.ColdMS = append(r.ColdMS, float64(lat)/1e6)
			r.ColdNormMS = append(r.ColdNormMS, float64(lat)/1e6/slow)
			r.ColdRunMS = append(r.ColdRunMS, float64(v.RunMS))
			r.done = append(r.done, served{ia, bulk, v.Result})
		}
	}
	r.expectCounters("cold", before, 0, uint64(to-from))
}

// join runs rounds in which client A posts a fresh request and client B
// posts the same one while A's is in flight, so B must ride A's
// computation: one miss per round, never two.
func (r *serveRun) join(tr *Tracer) {
	before := r.env.srv.MetricsSnapshot().Cache
	for round := 0; round < r.sizes.Joins; round++ {
		i := r.sizes.Cold + round
		ia, bulk := r.bodies(i)
		misses := r.env.srv.MetricsSnapshot().Cache.Misses
		var (
			va   serve.JobView
			erra error
			endA time.Time
		)
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			va, erra = r.env.post(ia)
			endA = time.Now()
		}()
		// B waits until the server has registered A's miss (or A gave up);
		// the simulation behind it takes milliseconds, B's post
		// microseconds.
	registered:
		for r.env.srv.MetricsSnapshot().Cache.Misses == misses {
			select {
			case <-finished:
				break registered
			default:
				runtime.Gosched()
			}
		}
		root := tr.Start("request.join", i, 0)
		vb, errb := r.env.post(ia)
		endB := time.Now()
		tr.End(root)
		<-finished
		okA := r.checkView("join leader", va, erra, false, nil)
		if r.checkView("join follower", vb, errb, true, va.Result) && okA {
			r.JoinOverheadMS = append(r.JoinOverheadMS, float64(endB.Sub(endA))/1e6)
			r.done = append(r.done, served{ia, bulk, va.Result})
		}
	}
	n := uint64(r.sizes.Joins)
	r.expectCounters("join", before, n, n)
}

// hit re-requests completed digests from two closed-loop clients for d.
func (r *serveRun) hit(tr *Tracer, d time.Duration) hitResult {
	var res hitResult
	if len(r.done) == 0 {
		r.fail("hit phase: nothing was computed to ask for again")
		return res
	}
	const clients = 2
	type client struct {
		rng    *rand.Rand
		us     []float64
		failed []string
	}
	cs := make([]client, clients)
	for c := range cs {
		cs[c].rng = rand.New(rand.NewSource(r.seed*31 + int64(c)))
		// Room for the whole phase, so the timed loop never regrows.
		cs[c].us = make([]float64, 0, int(d.Seconds()*30_000)+1024)
	}
	before := r.env.srv.MetricsSnapshot().Cache
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &cs[c]
			for sent := 0; time.Since(start) < d; sent++ {
				want := r.done[cl.rng.Intn(len(r.done))]
				body := want.interactive
				if cl.rng.Float64() < r.sizes.BulkShare {
					body = want.bulk
				}
				var root, sp int
				if sent%hitTraceEvery == 0 {
					root = tr.Start("request.hit", c*1_000_000+sent, 0)
					sp = tr.Start("http.post", c*1_000_000+sent, root)
				}
				t0 := time.Now()
				v, err := r.env.post(body)
				lat := time.Since(t0)
				tr.End(sp)
				tr.End(root)
				switch {
				case err != nil:
					cl.failed = append(cl.failed, err.Error())
				case v.Status != serve.StatusDone || !v.Cached || !bytes.Equal(v.Result, want.result):
					cl.failed = append(cl.failed, fmt.Sprintf("status %s cached=%v digest %.12s", v.Status, v.Cached, v.Digest))
				}
				cl.us = append(cl.us, float64(lat)/1e3)
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.Mallocs, res.Bytes, res.GCs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	for _, cl := range cs {
		res.US = append(res.US, cl.us...)
		for _, f := range cl.failed {
			r.fail("hit: %s", f)
		}
	}
	r.Attempted += len(res.US)
	r.expectCounters("hit", before, uint64(len(res.US)), 0)
	return res
}
