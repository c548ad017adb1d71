package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// RunError is the structured failure of one simulation run: what was
// being run, how it failed (Kind), and a diagnostic bundle — config
// hash, seed, the cycle the run died at, and the controllers' queue
// state — so a campaign can report and quarantine the failure instead of
// crashing the process. It marshals to JSON for campaign error files.
type RunError struct {
	// Identity of the run.
	GPUID  string `json:"gpu_id,omitempty"`
	PIMID  string `json:"pim_id,omitempty"`
	Policy string `json:"policy,omitempty"`
	Mode   string `json:"mode,omitempty"`
	What   string `json:"what,omitempty"`

	// Kind classifies the failure: "panic", "timeout" (per-run deadline
	// expired), "canceled" (campaign-level cancellation), or "error".
	Kind string `json:"kind"`

	// Diagnostic bundle.
	ConfigHash string              `json:"config_hash"`
	Seed       int64               `json:"seed"`
	GPUCycle   uint64              `json:"gpu_cycle"`
	DRAMCycle  uint64              `json:"dram_cycle"`
	Queues     []sim.QueueSnapshot `json:"queues,omitempty"`

	// Message is the human-readable cause; PanicValue and Stack are set
	// for Kind "panic".
	Message    string `json:"message"`
	PanicValue string `json:"panic_value,omitempty"`
	Stack      string `json:"stack,omitempty"`

	err error
}

func (e *RunError) Error() string {
	id := e.What
	if e.GPUID != "" || e.PIMID != "" {
		id = fmt.Sprintf("%sx%s/%s/%s", e.GPUID, e.PIMID, e.Policy, e.Mode)
	}
	return fmt.Sprintf("experiments: run %s failed (%s at GPU cycle %d): %s", id, e.Kind, e.GPUCycle, e.Message)
}

// Unwrap exposes the underlying cause, so errors.Is(err,
// context.DeadlineExceeded) and friends work through a RunError.
func (e *RunError) Unwrap() error { return e.err }

// runSystem executes cell c's built System under the runner's
// resilience policy: the context bounds the run (plus a per-run deadline
// when RunTimeout is set), and any outcome other than a completed
// simulation — a panic anywhere inside the cycle loop, a deadline expiry, a
// cancellation — comes back as a structured *RunError carrying the
// diagnostic bundle instead of unwinding the process.
func (r *Runner) runSystem(ctx context.Context, sys *sim.System, c Cell) (res *sim.Result, err error) {
	if r.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.RunTimeout)
		defer cancel()
	}
	mkErr := func(kind, msg string, cause error) *RunError {
		gpuCycle, dramCycle, queues := sys.Diagnostics()
		return &RunError{
			GPUID: c.GPU, PIMID: c.PIM, Policy: c.Policy, Mode: c.Cfg.NoC.Mode.String(), What: c.what(),
			Kind:       kind,
			ConfigHash: telemetry.HashConfig(c.Cfg),
			Seed:       c.Cfg.Seed,
			GPUCycle:   gpuCycle,
			DRAMCycle:  dramCycle,
			Queues:     queues,
			Message:    msg,
			err:        cause,
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			re := mkErr("panic", fmt.Sprint(rec), nil)
			re.PanicValue = fmt.Sprint(rec)
			re.Stack = string(debug.Stack())
			res, err = nil, re
		}
	}()
	if r.Observe != nil {
		r.Observe(c.what(), sys)
	}
	res, err = sys.RunContext(ctx)
	if err != nil {
		var ie *sim.ErrInterrupted
		if errors.As(err, &ie) {
			kind := "canceled"
			if errors.Is(ie.Err, context.DeadlineExceeded) {
				kind = "timeout"
			}
			re := mkErr(kind, err.Error(), err)
			re.Queues = ie.Queues // the interrupt point's snapshot
			return nil, re
		}
		return nil, mkErr("error", err.Error(), err)
	}
	return res, nil
}
