package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve/store"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options configure a Server; zero values pick the documented defaults
// (WithDefaults).
type Options struct {
	// Workers bounds the jobs that run at once (default GOMAXPROCS). A
	// competitive job computes its baselines beside its contended run,
	// so one job may run two simulations at a time.
	Workers int
	// CacheEntries bounds the completed-result cache (default 4096).
	CacheEntries int
	// RunTimeout bounds each individual simulation inside a job,
	// reusing the campaign hardening (default 5m).
	RunTimeout time.Duration
	// JobTimeout bounds a whole job — queue wait plus every simulation
	// it needs (default 10m). Requests may shorten it per job.
	JobTimeout time.Duration
	// MaxScale rejects requests asking for larger workloads (default 1.0).
	MaxScale float64
	// MaxJobs bounds retained finished job records (default 16384).
	MaxJobs int
	// SampleInterval is the telemetry epoch, in GPU cycles, of the
	// per-job progress sampler (default telemetry.DefaultInterval).
	SampleInterval uint64
	// StreamInterval is the SSE progress cadence (default 100ms).
	StreamInterval time.Duration

	// MaxQueueInteractive and MaxQueueBulk bound the per-class admission
	// queue depth (defaults 256 and 1024). A submit beyond the bound is
	// shed with HTTP 429 + Retry-After instead of queueing unboundedly.
	MaxQueueInteractive int
	MaxQueueBulk        int

	// StoreDir enables the persistent result store (internal/serve/
	// store): the cache warm-loads from it at boot and every computed
	// result is journaled before its waiters are released. Empty keeps
	// the cache memory-only.
	StoreDir string
	// StoreMaxBytes bounds the store's disk use (default
	// store.DefaultMaxBytes); a result that would exceed it degrades the
	// store to memory-only.
	StoreMaxBytes int64
	// StoreNoSync disables the per-record fsync (throughput over
	// durability of the latest results; the chaos gate runs with fsync
	// on).
	StoreNoSync bool
}

// WithDefaults returns o with every unset field at its default — what
// New runs with, and what cmd/pimserve's flags start from.
func (o Options) WithDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.RunTimeout <= 0 {
		o.RunTimeout = 5 * time.Minute
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.MaxScale <= 0 {
		o.MaxScale = 1.0
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 16384
	}
	if o.SampleInterval == 0 {
		o.SampleInterval = telemetry.DefaultInterval
	}
	if o.StreamInterval <= 0 {
		o.StreamInterval = 100 * time.Millisecond
	}
	if o.MaxQueueInteractive <= 0 {
		o.MaxQueueInteractive = 256
	}
	if o.MaxQueueBulk <= 0 {
		o.MaxQueueBulk = 1024
	}
	if o.StoreMaxBytes <= 0 {
		o.StoreMaxBytes = store.DefaultMaxBytes
	}
	return o
}

// Server is the pimserve core: a bounded worker pool draining the
// priority queue, the content-addressed result cache, and the job
// registry. Wrap Handler in an http.Server (cmd/pimserve does) or an
// httptest server.
type Server struct {
	opts  Options
	cache *Cache
	q     *queue
	store *store.Store // nil when persistence is disabled

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// ready closes once the warm load from the persistent store has
	// completed and the worker pool is up; /readyz reports 503 until
	// then. drain closes when shutdown begins (BeginDrain), flipping
	// readiness false BEFORE the listener stops accepting.
	ready     chan struct{}
	drain     chan struct{}
	drainOnce sync.Once

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // terminal job IDs in completion order, for retention
	seq      uint64
	closed   bool

	reg          *telemetry.Registry
	jobsCreated  *telemetry.Counter
	jobsDone     *telemetry.Counter
	jobsFailed   *telemetry.Counter
	jobsCanceled *telemetry.Counter
	jobsCached   *telemetry.Counter
	workersBusy  *telemetry.Gauge
	start        time.Time
}

// New builds a Server: it opens the persistent store (when configured),
// then warm-loads the cache and starts the worker pool in the
// background — Ready()/readyz report when that completed. Close
// releases it. The returned error covers environmental failures only
// (store directory not creatable/readable); damaged store contents
// degrade, they never fail New.
func New(opts Options) (*Server, error) {
	opts = opts.WithDefaults()
	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:   opts,
		cache:  NewCache(opts.CacheEntries, reg),
		q:      newQueue(reg, [2]int{ClassInteractive: opts.MaxQueueInteractive, ClassBulk: opts.MaxQueueBulk}),
		ctx:    ctx,
		cancel: cancel,
		ready:  make(chan struct{}),
		drain:  make(chan struct{}),
		jobs:   make(map[string]*Job),

		reg:          reg,
		jobsCreated:  reg.Counter("serve/jobs_created"),
		jobsDone:     reg.Counter("serve/jobs_done"),
		jobsFailed:   reg.Counter("serve/jobs_failed"),
		jobsCanceled: reg.Counter("serve/jobs_canceled"),
		jobsCached:   reg.Counter("serve/jobs_cached"),
		workersBusy:  reg.Gauge("serve/workers_busy"),
		start:        time.Now(),
	}
	if opts.StoreDir != "" {
		st, err := store.Open(store.Options{
			Dir:      opts.StoreDir,
			MaxBytes: opts.StoreMaxBytes,
			Sync:     !opts.StoreNoSync,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		s.store = st
	}
	s.wg.Add(1)
	go s.warmLoad()
	return s, nil
}

// warmLoad seeds the cache from the persistent store, then opens
// readiness and starts the worker pool. Workers deliberately start
// after seeding: no job can compute (and journal a duplicate of) a
// digest the store is about to warm in.
func (s *Server) warmLoad() {
	defer s.wg.Done()
	if s.store != nil {
		s.store.Each(func(r store.Record) {
			s.cache.Seed(r.Digest, r.Result)
		})
	}
	close(s.ready)
	s.mu.Lock()
	if !s.closed {
		// s.wg is never zero here (warmLoad's own count), so Add during a
		// concurrent Close.Wait is safe.
		for i := 0; i < s.opts.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	s.mu.Unlock()
}

// Ready reports whether the server finished warm-loading and has not
// begun draining — the /readyz answer.
func (s *Server) Ready() bool {
	select {
	case <-s.drain:
		return false
	default:
	}
	select {
	case <-s.ready:
		return true
	default:
		return false
	}
}

// BeginDrain flips readiness false and delivers a terminal "shutdown"
// event to in-flight SSE streams. Call it BEFORE stopping the listener
// so load balancers stop routing new work while in-flight requests
// still complete; Close calls it implicitly. Safe to call repeatedly.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// Close stops the server: flips readiness, cancels every job context,
// drains the queue (queued jobs finish as canceled), waits for the
// workers and join waiters to exit, and closes the persistent store.
// Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return
	}
	s.BeginDrain()
	s.cancel()
	s.q.Close()
	s.wg.Wait()
	// If Close ran before warmLoad started the workers, queued jobs have
	// no one to mark them terminal: drain them here.
	for {
		j, ok := s.q.Pop()
		if !ok {
			break
		}
		s.cache.Abandon(j.entry, errQueueClosed)
		s.finishJob(j, nil, false, context.Canceled)
	}
	if s.store != nil {
		s.store.Close()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.Pop()
		if !ok {
			return
		}
		s.workersBusy.Add(1)
		s.runJob(j)
		s.workersBusy.Add(-1)
	}
}

// errOwnerGone resolves an abandoned entry whose owner's own context
// ended — a cancel or the owner's job timeout, queued or mid-run. It is
// no verdict on the computation, so a joiner that is still live looks
// the digest up again instead of failing with it.
var errOwnerGone = errors.New("serve: the owning job ended before its result")

// runJob executes an owned (cache-miss) job and resolves its cache
// entry.
func (s *Server) runJob(j *Job) {
	var data []byte
	err := j.ctx.Err() // canceled or timed out while queued
	if err == nil {
		j.setRunning("")
		data, err = s.execute(j)
	}
	if err != nil {
		// A failure of the run itself (a panic, the per-run timeout)
		// reaches every joiner; the owner's own end does not.
		shared := err
		if j.ctx.Err() != nil {
			shared = errOwnerGone
		}
		s.cache.Abandon(j.entry, shared)
		s.finishJob(j, nil, false, err)
		return
	}
	// Persist BEFORE releasing waiters: once any client sees this result
	// as done, a restarted daemon must be able to serve the same bytes
	// from its warm cache (the chaos gate's zero accepted-then-lost
	// invariant). A persistence failure degrades the store to
	// memory-only; serving continues.
	if s.store != nil {
		if canon, merr := json.Marshal(j.Canon); merr == nil {
			s.store.Put(j.Digest, canon, data)
		}
	}
	s.cache.Fulfill(j.entry, data)
	s.finishJob(j, data, false, nil)
}

// execute runs the simulations a job needs through a job-private
// experiment runner (no state shared across requests beyond the result
// cache) and returns the canonical result bytes.
func (s *Server) execute(j *Job) ([]byte, error) {
	c := j.Canon
	r := experiments.NewRunner(c.Cfg, c.Scale)
	r.RunTimeout = s.opts.RunTimeout
	r.Observe = func(what string, sys *sim.System) {
		// A competitive job's baselines run beside its contended run;
		// progress follows the contended run alone.
		if c.Kind == experiments.KindCompetitive && what != experiments.KindCompetitive {
			return
		}
		j.setStage(what)
		// A small ring is plenty: the stream only reads the latest epoch.
		j.setCollector(sys.EnableTelemetry(s.opts.SampleInterval, 64))
	}

	res := Result{
		Digest: j.Digest,
		Kind:   c.Kind,
		GPU:    c.GPUID,
		PIM:    c.PIMID,
		Policy: c.Policy,
		Mode:   c.Mode,
		Scale:  c.Scale,
	}
	var err error
	switch c.Kind {
	case experiments.KindCompetitive:
		var pair experiments.Pair
		pair, err = r.CompetitiveCtx(j.ctx, c.GPUID, c.PIMID, c.Policy, c.VCMode())
		m := pair.Metrics()
		res.Competitive = &m
	case experiments.KindStandaloneGPU:
		res.Standalone = new(experiments.Standalone)
		*res.Standalone, err = r.StandaloneGPUCtx(j.ctx, c.GPUID)
	case experiments.KindStandalonePIM:
		res.Standalone = new(experiments.Standalone)
		*res.Standalone, err = r.StandalonePIMCtx(j.ctx, c.PIMID)
	default:
		err = fmt.Errorf("serve: unhandled kind %q", c.Kind)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// finishJob counts a job's terminal state, records it, and applies the
// finished-job retention bound. The count comes first: finish releases
// the waiting client, which may read /metrics straight away and must find
// its own job counted.
func (s *Server) finishJob(j *Job, result []byte, cached bool, err error) {
	switch {
	case err == nil:
		s.jobsDone.Inc()
		if cached {
			s.jobsCached.Inc()
		}
		j.finish(StatusDone, result, cached, "")
	case errors.Is(err, context.Canceled):
		s.jobsCanceled.Inc()
		j.finish(StatusCanceled, nil, false, err.Error())
	default:
		s.jobsFailed.Inc()
		j.finish(StatusFailed, nil, false, err.Error())
	}

	s.mu.Lock()
	s.finished = append(s.finished, j.ID)
	for len(s.finished) > s.opts.MaxJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// newJob registers a job for a canonicalized request. timeoutMS is the
// request's timeout_ms: 0, a negative value or one past JobTimeout takes
// JobTimeout. It is compared in milliseconds, before the conversion to a
// Duration, which would overflow for a large value.
func (s *Server) newJob(c Canonical, class Class, timeoutMS int64) *Job {
	timeout := s.opts.JobTimeout
	if timeoutMS > 0 && timeoutMS < timeout.Milliseconds() {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.ctx, timeout)
	j := &Job{
		Class:   class,
		Canon:   c,
		Digest:  c.Digest(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  StatusQueued,
		created: time.Now(),
	}
	s.mu.Lock()
	s.seq++
	j.ID = fmt.Sprintf("j-%08d", s.seq)
	s.jobs[j.ID] = j
	s.mu.Unlock()
	s.jobsCreated.Inc()
	return j
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Handler returns the HTTP API:
//
//	POST   /v1/simulate            submit a request (?wait=1 blocks)
//	GET    /v1/jobs/{id}           job status and result
//	GET    /v1/jobs/{id}/stream    SSE progress stream
//	DELETE /v1/jobs/{id}           cancel a job
//	GET    /healthz                liveness (process up; degraded flag)
//	GET    /readyz                 readiness (warm load done, not draining)
//	GET    /metrics                service metrics (also /v1/metrics)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//pimlint:besteffort — HTTP reply, not durable state: an encode failure here means the client vanished, and the result is already persisted
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	canon, err := Canonicalize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if canon.Scale > s.opts.MaxScale {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: scale %.3f exceeds the server limit %.3f", canon.Scale, s.opts.MaxScale))
		return
	}
	class, err := ParseClass(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.ctx.Err() != nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: shutting down"))
		return
	}

	j := s.newJob(canon, class, req.TimeoutMS)
	if err := s.dispatch(j); err != nil {
		if errors.Is(err, errQueueFull) {
			// Shed load instead of queueing unboundedly: tell the
			// client when the backlog should have moved.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}

	wait := r.URL.Query().Get("wait")
	if wait == "1" || strings.EqualFold(wait, "true") {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			writeError(w, http.StatusRequestTimeout, r.Context().Err())
			return
		}
		writeJSON(w, http.StatusOK, j.View(true))
		return
	}
	writeJSON(w, http.StatusAccepted, j.View(true))
}

// dispatch resolves j against the cache: a hit finishes it, a join
// rides the in-flight computation without occupying a worker, and a
// miss makes j the owner and queues it. A refused push finishes j as
// canceled and returns the queue's error.
func (s *Server) dispatch(j *Job) error {
	entry, outcome := s.cache.Lookup(j.Digest)
	switch outcome {
	case OutcomeHit:
		j.setRunning("")
		s.finishJob(j, entry.Result(), true, nil)
	case OutcomeJoin:
		s.wg.Add(1)
		go s.join(j, entry)
	case OutcomeMiss:
		j.entry = entry
		if err := s.q.Push(j); err != nil {
			s.cache.Abandon(entry, err)
			s.finishJob(j, nil, false, context.Canceled)
			return err
		}
	}
	return nil
}

// join waits on another job's computation for j. If that job ended for
// its own reasons while j is still live, j dispatches afresh: it finds
// the result, joins a newer computation, or becomes the owner itself.
func (s *Server) join(j *Job, entry *Entry) {
	defer s.wg.Done()
	data, err := entry.Wait(j.ctx)
	if errors.Is(err, errOwnerGone) {
		if err = j.ctx.Err(); err == nil {
			_ = s.dispatch(j) // a refused push has already finished j as canceled
			return
		}
	}
	if err == nil {
		j.setRunning("")
	}
	s.finishJob(j, data, err == nil, err)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, j.View(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.View(false))
}

// handleStream serves an SSE progress stream: a "job" event with the
// current view every StreamInterval while the job runs, then one final
// "done" event carrying the full view (result included) when it reaches
// a terminal status.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: unknown job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("serve: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	if !send("job", j.View(false)) {
		return
	}
	ticker := time.NewTicker(s.opts.StreamInterval)
	defer ticker.Stop()
	for {
		select {
		case <-j.Done():
			send("done", j.View(true))
			return
		case <-r.Context().Done():
			return
		case <-s.drain:
			// Drain delivers a terminal event, never a mid-stream EOF:
			// prefer the job's own terminal view if it just finished,
			// otherwise say explicitly that the server is going away.
			select {
			case <-j.Done():
				send("done", j.View(true))
			default:
				send("shutdown", j.View(false))
			}
			return
		case <-ticker.C:
			if !send("job", j.View(false)) {
				return
			}
		}
	}
}

// retryAfterSeconds estimates when a shed client should retry: one
// second per queued-jobs-per-worker, clamped to [1, 30]. Deliberately
// coarse — its job is to spread the retry wave, not to predict latency.
func (s *Server) retryAfterSeconds() int {
	ia, bulk := s.q.Depths()
	sec := 1 + (ia+bulk)/s.opts.Workers
	if sec > 30 {
		sec = 30
	}
	return sec
}

// Degraded reports whether the persistent store has fallen back to
// memory-only mode (always false when persistence is disabled).
func (s *Server) Degraded() bool {
	return s.store != nil && s.store.Degraded()
}

// handleHealth is LIVENESS: 200 as long as the process can answer,
// including while draining — kubelet-style probes must not kill a
// daemon that is finishing in-flight work. The degraded flag rides
// along so operators see persistence failures here too.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"degraded": s.Degraded(),
	})
}

// handleReady is READINESS: false until the warm load from the
// persistent store completes, and false again as soon as shutdown
// begins (BeginDrain runs before the listener stops accepting).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-s.drain:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	default:
	}
	select {
	case <-s.ready:
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ready",
			"degraded": s.Degraded(),
		})
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "warming"})
	}
}

// Metrics is the GET /metrics payload (see docs/ARCHITECTURE.md,
// "Observability"): cache effectiveness, queue backlog by class, worker
// utilization and job outcomes, all backed by internal/telemetry
// instruments.
type Metrics struct {
	UptimeMS int64 `json:"uptime_ms"`
	// Ready mirrors /readyz; Degraded mirrors the persistent store's
	// memory-only fallback flag (false when persistence is disabled).
	Ready    bool `json:"ready"`
	Degraded bool `json:"degraded"`

	Workers struct {
		Total int   `json:"total"`
		Busy  int64 `json:"busy"`
	} `json:"workers"`

	Queue struct {
		InteractiveDepth int    `json:"interactive_depth"`
		BulkDepth        int    `json:"bulk_depth"`
		Enqueued         uint64 `json:"enqueued"`
		Dequeued         uint64 `json:"dequeued"`
		// ShedInteractive/ShedBulk count submits refused with 429
		// because the class was at its admission limit.
		ShedInteractive uint64 `json:"shed_interactive"`
		ShedBulk        uint64 `json:"shed_bulk"`
	} `json:"queue"`

	Cache CacheStats `json:"cache"`

	// Store reports the persistent backing store (replay/skip counters,
	// disk use, degraded reason); Enabled false means the
	// daemon runs memory-only by configuration.
	Store struct {
		Enabled bool `json:"enabled"`
		store.Stats
	} `json:"store"`

	Jobs struct {
		Created  uint64 `json:"created"`
		Done     uint64 `json:"done"`
		Failed   uint64 `json:"failed"`
		Canceled uint64 `json:"canceled"`
		Cached   uint64 `json:"cached"`
	} `json:"jobs"`
}

// MetricsSnapshot assembles the current metrics (also used by tests and
// the load generator directly).
func (s *Server) MetricsSnapshot() Metrics {
	var m Metrics
	m.UptimeMS = time.Since(s.start).Milliseconds()
	m.Ready = s.Ready()
	m.Degraded = s.Degraded()
	m.Workers.Total = s.opts.Workers
	m.Workers.Busy = s.workersBusy.Value()
	m.Queue.InteractiveDepth, m.Queue.BulkDepth = s.q.Depths()
	m.Queue.Enqueued = s.q.enqueued.Value()
	m.Queue.Dequeued = s.q.dequeued.Value()
	m.Queue.ShedInteractive, m.Queue.ShedBulk = s.q.Shed()
	m.Cache = s.cache.Stats()
	if s.store != nil {
		m.Store.Enabled = true
		m.Store.Stats = s.store.Stats()
	}
	m.Jobs.Created = s.jobsCreated.Value()
	m.Jobs.Done = s.jobsDone.Value()
	m.Jobs.Failed = s.jobsFailed.Value()
	m.Jobs.Canceled = s.jobsCanceled.Value()
	m.Jobs.Cached = s.jobsCached.Value()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.MetricsSnapshot())
}
