package workload

import (
	"fmt"

	"repro/internal/request"
)

// Validate checks a GPU profile for the invariants the generators and the
// SM model rely on, returning a descriptive error for the first
// violation. User-supplied profiles (custom kernels through the public
// API) should be validated before simulation.
func (p GPUProfile) Validate() error {
	switch {
	case p.Requests <= 0:
		return fmt.Errorf("workload: %s: Requests must be positive, got %d", p.label(), p.Requests)
	case p.Interval <= 0:
		return fmt.Errorf("workload: %s: Interval must be positive, got %d", p.label(), p.Interval)
	case p.Streams <= 0:
		return fmt.Errorf("workload: %s: Streams must be positive, got %d", p.label(), p.Streams)
	case p.Locality < 0 || p.Locality > 1:
		return fmt.Errorf("workload: %s: Locality %v outside [0,1]", p.label(), p.Locality)
	case p.Reuse < 0 || p.Reuse > 1:
		return fmt.Errorf("workload: %s: Reuse %v outside [0,1]", p.label(), p.Reuse)
	case p.ReadFrac < 0 || p.ReadFrac > 1:
		return fmt.Errorf("workload: %s: ReadFrac %v outside [0,1]", p.label(), p.ReadFrac)
	case p.Footprint == 0:
		return fmt.Errorf("workload: %s: Footprint must be positive", p.label())
	case p.MaxOutstanding < 0:
		return fmt.Errorf("workload: %s: MaxOutstanding must be non-negative, got %d", p.label(), p.MaxOutstanding)
	}
	return nil
}

func (p GPUProfile) label() string {
	if p.ID != "" {
		return p.ID
	}
	if p.Name != "" {
		return p.Name
	}
	return "(unnamed profile)"
}

// Validate checks a PIM profile: non-empty block structure with
// RF-multiple segment lengths (Sec. II-B's "multiple of the register
// file size"; rfPerBank is config.PIM.RFPerBank()), known op kinds, and a
// first segment that defines register-file entries rather than storing
// them. Every segment sweeps the whole RF, so once a load or compute
// segment has run, every store reads a defined entry: a valid profile
// never trips the PIM units' checks mid-run.
func (p PIMProfile) Validate(rfPerBank int) error {
	if p.Blocks <= 0 {
		return fmt.Errorf("workload: %s: Blocks must be positive, got %d", p.label(), p.Blocks)
	}
	if len(p.Segments) == 0 {
		return fmt.Errorf("workload: %s: at least one segment required", p.label())
	}
	if rfPerBank <= 0 {
		return fmt.Errorf("workload: rfPerBank must be positive, got %d", rfPerBank)
	}
	if p.Segments[0].Op == request.PIMStore {
		return fmt.Errorf("workload: %s: segment 0 stores register-file entries no load or compute defined", p.label())
	}
	for i, s := range p.Segments {
		if s.Op > request.PIMStore {
			return fmt.Errorf("workload: %s: segment %d has unknown op kind %v", p.label(), i, s.Op)
		}
		if s.Ops <= 0 {
			return fmt.Errorf("workload: %s: segment %d has %d ops", p.label(), i, s.Ops)
		}
		if s.Ops%rfPerBank != 0 {
			return fmt.Errorf("workload: %s: segment %d ops %d not a multiple of the %d-entry per-bank RF", p.label(), i, s.Ops, rfPerBank)
		}
	}
	return nil
}

func (p PIMProfile) label() string {
	if p.ID != "" {
		return p.ID
	}
	if p.Name != "" {
		return p.Name
	}
	return "(unnamed profile)"
}
