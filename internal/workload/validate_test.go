package workload

import (
	"testing"

	"repro/internal/request"
)

func TestBuiltinProfilesValidate(t *testing.T) {
	for _, p := range GPUProfiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.ID, err)
		}
	}
	for _, p := range PIMProfiles() {
		if err := p.Validate(8); err != nil {
			t.Errorf("%s: %v", p.ID, err)
		}
	}
}

func TestGPUValidateCatchesBadFields(t *testing.T) {
	good := GPUProfiles()[0]
	cases := []struct {
		name string
		mut  func(*GPUProfile)
	}{
		{"zero requests", func(p *GPUProfile) { p.Requests = 0 }},
		{"zero interval", func(p *GPUProfile) { p.Interval = 0 }},
		{"zero streams", func(p *GPUProfile) { p.Streams = 0 }},
		{"locality > 1", func(p *GPUProfile) { p.Locality = 1.5 }},
		{"negative reuse", func(p *GPUProfile) { p.Reuse = -0.1 }},
		{"readfrac > 1", func(p *GPUProfile) { p.ReadFrac = 2 }},
		{"zero footprint", func(p *GPUProfile) { p.Footprint = 0 }},
		{"negative outstanding", func(p *GPUProfile) { p.MaxOutstanding = -1 }},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestPIMValidateCatchesBadFields(t *testing.T) {
	good := PIMProfiles()[0]
	if err := good.Validate(0); err == nil {
		t.Error("zero rfPerBank accepted")
	}
	cases := []struct {
		name string
		mut  func(*PIMProfile)
	}{
		{"zero blocks", func(p *PIMProfile) { p.Blocks = 0 }},
		{"no segments", func(p *PIMProfile) { p.Segments = nil }},
		{"zero ops", func(p *PIMProfile) {
			p.Segments = []PIMSegment{{Op: request.PIMLoad, Ops: 0}}
		}},
		{"non-RF-multiple", func(p *PIMProfile) {
			p.Segments = []PIMSegment{{Op: request.PIMLoad, Ops: 12}}
		}},
		{"unknown op kind", func(p *PIMProfile) {
			p.Segments = []PIMSegment{{Op: request.PIMLoad, Ops: 8}, {Op: request.PIMStore + 1, Ops: 8}}
		}},
		{"store first", func(p *PIMProfile) {
			p.Segments = []PIMSegment{{Op: request.PIMStore, Ops: 8}, {Op: request.PIMLoad, Ops: 8}}
		}},
	}
	for _, c := range cases {
		p := good
		c.mut(&p)
		if err := p.Validate(8); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestValidateLabelsUnnamedProfiles(t *testing.T) {
	var p GPUProfile
	if err := p.Validate(); err == nil {
		t.Fatal("zero profile accepted")
	}
}
