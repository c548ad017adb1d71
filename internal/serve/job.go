package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Job is one accepted simulate request moving through the service.
type Job struct {
	ID     string
	Digest string
	Class  Class
	Canon  Canonical

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// entry is the owned cache cell when this job is the single-flight
	// owner (nil for hits and joins).
	entry *Entry

	mu        sync.Mutex
	status    string
	stage     string
	cached    bool
	result    []byte
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
	collector *telemetry.Collector
}

// Done exposes the completion channel (closed when the job reaches a
// terminal status).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel cancels the job's context; the terminal status is recorded by
// whoever is driving the job when it observes the cancellation.
func (j *Job) Cancel() { j.cancel() }

func (j *Job) setRunning(stage string) {
	j.mu.Lock()
	j.status = StatusRunning
	j.stage = stage
	j.started = time.Now()
	j.mu.Unlock()
}

// setStage records the current run phase (an experiments run kind); it
// is the Runner.Observe callback's view.
func (j *Job) setStage(stage string) {
	j.mu.Lock()
	j.stage = stage
	j.mu.Unlock()
}

func (j *Job) setCollector(c *telemetry.Collector) {
	j.mu.Lock()
	j.collector = c
	j.mu.Unlock()
}

// finish records a terminal status exactly once and closes Done.
func (j *Job) finish(status string, result []byte, cached bool, errMsg string) {
	j.mu.Lock()
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusCanceled {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.stage = ""
	j.result = result
	j.cached = cached
	j.errMsg = errMsg
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the context's resources
	close(j.done)
}

// Progress is the live view of a running job, fed by the telemetry epoch
// sampler of the simulation currently executing for it.
type Progress struct {
	// Stage is the run phase, an experiments run kind.
	Stage string `json:"stage,omitempty"`
	// GPUCycle/DRAMCycle are the latest sampled simulation clocks.
	GPUCycle  uint64 `json:"gpu_cycle,omitempty"`
	DRAMCycle uint64 `json:"dram_cycle,omitempty"`
	// Completed counts serviced requests per application.
	Completed []uint64 `json:"completed,omitempty"`
}

// JobView is the JSON rendering of a job.
type JobView struct {
	ID       string          `json:"id"`
	Digest   string          `json:"digest"`
	Kind     string          `json:"kind"`
	Priority string          `json:"priority"`
	Status   string          `json:"status"`
	Cached   bool            `json:"cached"`
	Error    string          `json:"error,omitempty"`
	QueuedMS int64           `json:"queued_ms"`
	RunMS    int64           `json:"run_ms,omitempty"`
	Progress *Progress       `json:"progress,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job; includeResult controls whether the (possibly
// large) result payload rides along.
func (j *Job) View(includeResult bool) JobView {
	j.mu.Lock()
	v := JobView{
		ID:       j.ID,
		Digest:   j.Digest,
		Kind:     j.Canon.Kind,
		Priority: j.Class.String(),
		Status:   j.status,
		Cached:   j.cached,
		Error:    j.errMsg,
	}
	started, finished := j.started, j.finished
	created := j.created
	stage := j.stage
	collector := j.collector
	if includeResult && j.result != nil {
		v.Result = json.RawMessage(j.result)
	}
	j.mu.Unlock()

	switch {
	case started.IsZero():
		v.QueuedMS = time.Since(created).Milliseconds()
	default:
		v.QueuedMS = started.Sub(created).Milliseconds()
		if finished.IsZero() {
			v.RunMS = time.Since(started).Milliseconds()
		} else {
			v.RunMS = finished.Sub(started).Milliseconds()
		}
	}
	if v.Status == StatusRunning {
		p := &Progress{Stage: stage}
		var sampler *telemetry.Sampler
		if collector != nil {
			sampler = collector.Sampler
		}
		if snap, ok := sampler.Last(); ok {
			p.GPUCycle = snap.GPUCycle
			p.DRAMCycle = snap.DRAMCycle
			p.Completed = make([]uint64, len(snap.Apps))
			for i := range snap.Apps {
				p.Completed[i] = snap.Apps[i].Completed
			}
		}
		v.Progress = p
	}
	return v
}

// Result is the deterministic payload of one simulation: everything in
// it derives from the simulated system alone (no wall clock, no
// provenance), so identical canonical configs yield byte-identical
// encodings — the property the content-addressed cache leans on and the
// load generator asserts.
type Result struct {
	Digest string  `json:"digest"`
	Kind   string  `json:"kind"`
	GPU    string  `json:"gpu,omitempty"`
	PIM    string  `json:"pim,omitempty"`
	Policy string  `json:"policy,omitempty"`
	Mode   string  `json:"mode"`
	Scale  float64 `json:"scale"`

	Competitive *experiments.Metrics    `json:"competitive,omitempty"`
	Standalone  *experiments.Standalone `json:"standalone,omitempty"`
}

// CompetitiveResult names the competitive payload for callers that
// build one outside experiments (bench/).
type CompetitiveResult = experiments.Metrics
