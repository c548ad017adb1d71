// Package loadgen drives a pimserve instance with a reproducible mixed
// workload — hot duplicates, cold unique configs, interactive and bulk
// priorities — and checks the service invariants the CI gate enforces:
// no failures, byte-identical results per digest across cache hits and
// misses, and a cache hit rate matching the duplicate fraction.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// Profile shapes a load run. The schedule it generates is a pure
// function of the profile (all randomness flows from Seed), so two runs
// against equivalent servers issue the same requests in the same order.
type Profile struct {
	// Requests is the total request count.
	Requests int
	// Concurrency is the number of client goroutines.
	Concurrency int
	// DupFraction in [0,1] is the fraction of requests drawn from the
	// hot set (duplicates of each other); the rest get unique seeds.
	DupFraction float64
	// HotSet bounds the number of distinct hot configurations.
	HotSet int
	// BulkFraction in [0,1] is the fraction submitted at bulk priority.
	BulkFraction float64
	// Scale is the workload scale of every request.
	Scale float64
	// MaxGPUCycles bounds each simulation (0 = server-side default).
	MaxGPUCycles uint64
	// TimeoutMS is the per-job timeout sent with each request.
	TimeoutMS int64
	// Seed drives the schedule's RNG.
	Seed int64
	// MaxRetries bounds per-request retries on 429/503 responses and
	// transport errors. Retries honor the server's Retry-After header
	// when present and otherwise back off exponentially with jitter
	// (seeded per worker, so schedules stay reproducible).
	MaxRetries int
}

// Short returns the CI smoke profile: small enough to finish in tens of
// seconds under -race, large enough to exercise dedup, priorities and
// eviction-free steady state.
func Short() Profile {
	return Profile{
		Requests:     600,
		Concurrency:  24,
		DupFraction:  0.95,
		HotSet:       12,
		BulkFraction: 0.3,
		Scale:        0.02,
		MaxGPUCycles: 2_500_000,
		TimeoutMS:    120_000,
		Seed:         1,
		MaxRetries:   3,
	}
}

func (p Profile) withDefaults() Profile {
	if p.Requests <= 0 {
		p.Requests = 100
	}
	if p.Concurrency <= 0 {
		p.Concurrency = 8
	}
	if p.HotSet <= 0 {
		p.HotSet = 8
	}
	if p.Scale <= 0 {
		p.Scale = 0.02
	}
	return p
}

// hot configuration space the generator draws from.
var (
	hotGPUs     = []string{"G4", "G8", "G17"}
	hotPIMs     = []string{"P1", "P2"}
	hotPolicies = []string{"fcfs", "fr-fcfs", "f3fs"}
	hotModes    = []string{"VC1", "VC2"}
)

// BuildSchedule expands a profile into its deterministic request list.
// Requests[i] is identical across calls with the same profile.
func BuildSchedule(p Profile) []serve.Request {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	hot := make([]serve.Request, 0, p.HotSet)
	for i := 0; len(hot) < p.HotSet; i++ {
		hot = append(hot, serve.Request{
			Kind:         experiments.KindCompetitive,
			GPU:          hotGPUs[i%len(hotGPUs)],
			PIM:          hotPIMs[(i/len(hotGPUs))%len(hotPIMs)],
			Policy:       hotPolicies[(i/(len(hotGPUs)*len(hotPIMs)))%len(hotPolicies)],
			Mode:         hotModes[(i/(len(hotGPUs)*len(hotPIMs)*len(hotPolicies)))%len(hotModes)],
			Scale:        p.Scale,
			MaxGPUCycles: p.MaxGPUCycles,
			TimeoutMS:    p.TimeoutMS,
		})
	}

	reqs := make([]serve.Request, p.Requests)
	for i := range reqs {
		if rng.Float64() < p.DupFraction {
			reqs[i] = hot[rng.Intn(len(hot))]
		} else {
			// Cold request: a hot shape with a unique seed, so it costs
			// the same to simulate but can never share a digest.
			r := hot[rng.Intn(len(hot))]
			r.Seed = 1000 + int64(i)
			reqs[i] = r
		}
		if rng.Float64() < p.BulkFraction {
			reqs[i].Priority = serve.PriorityBulk
		} else {
			reqs[i].Priority = serve.PriorityInteractive
		}
	}
	return reqs
}

// Report summarizes a load run.
type Report struct {
	Requests      int `json:"requests"`
	Succeeded     int `json:"succeeded"`
	Failed        int `json:"failed"`
	CacheServed   int `json:"cache_served"`
	UniqueDigests int `json:"unique_digests"`
	// Mismatches counts digests whose responses were not byte-identical
	// across all requests that produced them — always 0 on a healthy
	// deterministic server.
	Mismatches int `json:"mismatches"`
	// Retries counts requests re-sent after a 429/503 or transport
	// error; a request that eventually succeeds counts as Succeeded.
	Retries int           `json:"retries"`
	Elapsed time.Duration `json:"elapsed_ns"`
	RPS     float64       `json:"rps"`
	// HitRate is the server-reported cache hit rate after the run.
	HitRate float64 `json:"hit_rate"`
	// Errors holds the first few failure messages for diagnosis.
	Errors []string `json:"errors,omitempty"`
}

// Run fires the profile's schedule at baseURL with p.Concurrency client
// goroutines, each POSTing /v1/simulate?wait=1, and cross-checks every
// response against all other responses for the same digest.
func Run(ctx context.Context, client *http.Client, baseURL string, p Profile) (Report, error) {
	p = p.withDefaults()
	if client == nil {
		client = http.DefaultClient
	}
	reqs := BuildSchedule(p)

	var (
		mu       sync.Mutex
		rep      Report
		byDigest = map[string][]byte{}
		mismatch = map[string]bool{}
	)
	rep.Requests = len(reqs)

	work := make(chan serve.Request)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < p.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker jitter source: retries stay reproducible without
			// the workers contending on one locked RNG.
			rng := rand.New(rand.NewSource(p.Seed<<16 + int64(w)))
			for req := range work {
				view, retries, err := post(ctx, client, baseURL, req, p.MaxRetries, rng)
				mu.Lock()
				rep.Retries += retries
				switch {
				case err != nil:
					rep.Failed++
					if len(rep.Errors) < 5 {
						rep.Errors = append(rep.Errors, err.Error())
					}
				case view.Status != "done":
					rep.Failed++
					if len(rep.Errors) < 5 {
						rep.Errors = append(rep.Errors,
							fmt.Sprintf("job %s: status %s: %s", view.ID, view.Status, view.Error))
					}
				default:
					rep.Succeeded++
					if view.Cached {
						rep.CacheServed++
					}
					if prev, ok := byDigest[view.Digest]; !ok {
						byDigest[view.Digest] = view.Result
					} else if !bytes.Equal(prev, view.Result) {
						mismatch[view.Digest] = true
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	for _, req := range reqs {
		select {
		case work <- req:
		case <-ctx.Done():
			close(work)
			wg.Wait()
			return rep, ctx.Err()
		}
	}
	close(work)
	wg.Wait()

	rep.Elapsed = time.Since(start)
	rep.UniqueDigests = len(byDigest)
	rep.Mismatches = len(mismatch)
	if s := rep.Elapsed.Seconds(); s > 0 {
		rep.RPS = float64(rep.Succeeded) / s
	}

	var metrics serve.Metrics
	if err := getJSON(ctx, client, baseURL+"/metrics", &metrics); err != nil {
		return rep, fmt.Errorf("loadgen: fetch metrics: %w", err)
	}
	rep.HitRate = metrics.Cache.HitRate
	return rep, nil
}

// post submits one request, retrying up to maxRetries times on shed
// (429) and unavailable (503) responses and on transport errors. The
// wait between attempts is exponential with jitter, raised to the
// server's Retry-After when it sends one. Returns the retry count it
// spent alongside the final outcome.
func post(ctx context.Context, client *http.Client, baseURL string, req serve.Request, maxRetries int, rng *rand.Rand) (serve.JobView, int, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		view, retryAfter, err := postOnce(ctx, client, baseURL, req)
		if err == nil {
			return view, attempt, nil
		}
		lastErr = err
		if retryAfter < 0 || attempt >= maxRetries || ctx.Err() != nil {
			return serve.JobView{}, attempt, lastErr
		}
		// Exponential backoff with full jitter, floored at the server's
		// Retry-After hint so shed clients never hammer early.
		backoff := time.Duration(100<<attempt) * time.Millisecond
		if backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
		delay := time.Duration(rng.Int63n(int64(backoff) + 1))
		if retryAfter > delay {
			delay = retryAfter
		}
		// A stoppable timer rather than time.After: a canceled run exits
		// the backoff immediately and releases the timer, instead of
		// leaving a Retry-After-sized timer (seconds) live per worker.
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return serve.JobView{}, attempt, ctx.Err()
		}
	}
}

// postOnce performs a single submit. A negative retryAfter means the
// failure is not retryable; zero means retryable with no server hint.
func postOnce(ctx context.Context, client *http.Client, baseURL string, req serve.Request) (view serve.JobView, retryAfter time.Duration, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobView{}, -1, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		baseURL+"/v1/simulate?wait=1", bytes.NewReader(body))
	if err != nil {
		return serve.JobView{}, -1, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		// Transport errors (connection refused mid-restart, reset) are
		// retryable unless the context itself is done.
		if ctx.Err() != nil {
			return serve.JobView{}, -1, err
		}
		return serve.JobView{}, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("POST /v1/simulate: %s: %s", resp.Status, bytes.TrimSpace(data))
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			after := time.Duration(0)
			if sec, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && sec > 0 {
				after = time.Duration(sec) * time.Second
			}
			return serve.JobView{}, after, err
		default:
			return serve.JobView{}, -1, err
		}
	}
	if err := json.Unmarshal(data, &view); err != nil {
		return serve.JobView{}, -1, err
	}
	return view, -1, nil
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
