package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

func mustCanon(t *testing.T, req Request) Canonical {
	t.Helper()
	c, err := Canonicalize(req)
	if err != nil {
		t.Fatalf("Canonicalize(%+v): %v", req, err)
	}
	return c
}

func digestOf(t *testing.T, req Request) string {
	t.Helper()
	return mustCanon(t, req).Digest()
}

// TestDigestFieldOrderInvariant shuffles the JSON field order of a
// fully spelled-out request body and checks every permutation decodes
// and canonicalizes to one digest — the wire form's layout must never
// leak into the content address.
func TestDigestFieldOrderInvariant(t *testing.T) {
	fields := []string{
		`"kind":"competitive"`,
		`"gpu":"G8"`,
		`"pim":"P1"`,
		`"policy":"f3fs"`,
		`"mode":"VC2"`,
		`"scale":0.05`,
		`"seed":7`,
		`"max_gpu_cycles":1000000`,
		`"faults":"dram=0.002:12"`,
	}
	rng := rand.New(rand.NewSource(1))
	var want string
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(fields))
		parts := make([]string, len(fields))
		for i, p := range perm {
			parts[i] = fields[p]
		}
		body := "{" + strings.Join(parts, ",") + "}"
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		d := digestOf(t, req)
		if trial == 0 {
			want = d
			continue
		}
		if d != want {
			t.Fatalf("permutation %d: digest %s != %s\nbody: %s", trial, d, want, body)
		}
	}
}

// TestDigestDefaultElision: a sparse request and one spelling out every
// default explicitly mean the same simulation and must share a digest.
func TestDigestDefaultElision(t *testing.T) {
	sparse := Request{GPU: "G8", PIM: "P1", Policy: "f3fs"}
	spelled := Request{
		Kind:   experiments.KindCompetitive,
		GPU:    "G8",
		PIM:    "P1",
		Policy: "f3fs",
		Mode:   "VC1",
		Scale:  1.0,
	}
	if d1, d2 := digestOf(t, sparse), digestOf(t, spelled); d1 != d2 {
		t.Fatalf("sparse digest %s != spelled-out digest %s", d1, d2)
	}
}

// TestDigestAliases: spellings that resolve to the same simulation —
// case variants, benchmark names for IDs, fault-schedule
// seed inheritance — must collapse onto one digest.
func TestDigestAliases(t *testing.T) {
	base := Request{GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1"}
	baseDigest := digestOf(t, base)

	baseCanon := mustCanon(t, base)
	cfgSeed := baseCanon.Cfg.Seed

	aliases := []Request{
		{GPU: "g8", PIM: "p1", Policy: "F3FS", Mode: "vc1"},
		{Kind: "Competitive", GPU: "G8", PIM: "P1", Policy: "f3fs"},
		{GPU: "G8", PIM: "P1", Policy: "f3fs", Seed: cfgSeed},
		{GPU: "G8", PIM: "P1", Policy: "f3fs", Scale: 1.0},
	}
	for i, alias := range aliases {
		if d := digestOf(t, alias); d != baseDigest {
			t.Errorf("alias %d (%+v): digest %s, want %s", i, alias, d, baseDigest)
		}
	}

	// Fault schedules: seed=0 inherits the config seed, so writing the
	// config seed explicitly is the same schedule.
	f1 := digestOf(t, Request{GPU: "G8", PIM: "P1", Policy: "f3fs", Faults: "dram=0.002:12"})
	f2 := digestOf(t, Request{GPU: "G8", PIM: "P1", Policy: "f3fs",
		Faults: fmt.Sprintf("seed=%d,dram=0.002:12", cfgSeed)})
	if f1 != f2 {
		t.Errorf("fault seed inheritance: digest %s != %s", f1, f2)
	}

	// Service fields never enter the digest.
	s1 := digestOf(t, Request{GPU: "G8", PIM: "P1", Policy: "f3fs", Priority: PriorityBulk, TimeoutMS: 5})
	if s1 != baseDigest {
		t.Errorf("service fields changed the digest: %s != %s", s1, baseDigest)
	}
}

// TestDigestSemanticChanges: any change that alters what is simulated
// must change the digest. Builds a set of semantically distinct requests
// and asserts their digests are pairwise distinct (and distinct from
// the base).
func TestDigestSemanticChanges(t *testing.T) {
	base := Request{GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1"}
	variants := map[string]Request{
		"policy":   {GPU: "G8", PIM: "P1", Policy: "fcfs", Mode: "VC1"},
		"mode":     {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC2"},
		"gpu":      {GPU: "G4", PIM: "P1", Policy: "f3fs", Mode: "VC1"},
		"pim":      {GPU: "G8", PIM: "P2", Policy: "f3fs", Mode: "VC1"},
		"scale":    {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1", Scale: 0.5},
		"seed":     {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1", Seed: 99},
		"cycles":   {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1", MaxGPUCycles: 12345},
		"mem_cap":  {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1", MemCap: 64},
		"pim_cap":  {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1", PIMCap: 64},
		"faults":   {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1", Faults: "dram=0.002:12"},
		"full":     {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC1", Full: true},
		"kind-gpu": {Kind: experiments.KindStandaloneGPU, GPU: "G8"},
		"kind-pim": {Kind: experiments.KindStandalonePIM, PIM: "P1"},
	}
	seen := map[string]string{digestOf(t, base): "base"}
	for name, req := range variants {
		d := digestOf(t, req)
		if prev, dup := seen[d]; dup {
			t.Errorf("variant %q collides with %q on digest %s", name, prev, d)
		}
		seen[d] = name
	}
}

// TestDigestStandaloneElision: knobs the run never reads are elided from
// its identity: the contended run's policy and interconnect mode for a
// standalone baseline, a bypass cap for a policy that does not read it
// (a standalone baseline's fr-fcfs included), and an inactive fault
// schedule.
func TestDigestStandaloneElision(t *testing.T) {
	for name, pair := range map[string][2]Request{
		"standalone-policy-mode": {
			{Kind: experiments.KindStandaloneGPU, GPU: "G8"},
			{Kind: experiments.KindStandaloneGPU, GPU: "G8", Policy: "f3fs", Mode: "VC2"},
		},
		"standalone-gpu-caps": {
			{Kind: experiments.KindStandaloneGPU, GPU: "G8"},
			{Kind: experiments.KindStandaloneGPU, GPU: "G8", MemCap: 64, PIMCap: 64},
		},
		"standalone-pim-caps": {
			{Kind: experiments.KindStandalonePIM, PIM: "P1"},
			{Kind: experiments.KindStandalonePIM, PIM: "P1", MemCap: 64, PIMCap: 64},
		},
		"fr-fcfs-caps": {
			{GPU: "G8", PIM: "P1", Policy: "fr-fcfs"},
			{GPU: "G8", PIM: "P1", Policy: "fr-fcfs", MemCap: 64, PIMCap: 64},
		},
		"mode-cap-pim-cap": {
			{GPU: "G8", PIM: "P1", Policy: "mode-cap-fr-fcfs"},
			{GPU: "G8", PIM: "P1", Policy: "mode-cap-fr-fcfs", PIMCap: 64},
		},
		"inactive-faults": {
			{GPU: "G8", PIM: "P1", Policy: "f3fs"},
			{GPU: "G8", PIM: "P1", Policy: "f3fs", Faults: "seed=5,dram=0:12"},
		},
		"unread-fault-clauses": {
			{GPU: "G8", PIM: "P1", Policy: "f3fs", Faults: "noc=0.001:24"},
			{GPU: "G8", PIM: "P1", Policy: "f3fs", Faults: "noc=0.001:24,dram=0:12,throttle=40000:0"},
		},
	} {
		if d1, d2 := digestOf(t, pair[0]), digestOf(t, pair[1]); d1 != d2 {
			t.Errorf("%s: identity depends on a knob the run never reads: %s != %s", name, d1, d2)
		}
	}
	// The one knob mode-cap-fr-fcfs does read still counts.
	if digestOf(t, Request{GPU: "G8", PIM: "P1", Policy: "mode-cap-fr-fcfs"}) ==
		digestOf(t, Request{GPU: "G8", PIM: "P1", Policy: "mode-cap-fr-fcfs", MemCap: 64}) {
		t.Error("mode-cap-fr-fcfs: mem_cap does not reach the identity")
	}
}

// FuzzCanonicalize decodes a raw body the way handleSimulate does and
// canonicalizes it. No input panics; an accepted request's configuration
// validates; the request rebuilt from the canonical form canonicalizes
// to the same digest; and setting a bypass cap moves the digest exactly
// when the canonical policy reads that cap.
func FuzzCanonicalize(f *testing.F) {
	for _, body := range []string{
		`{"gpu":"G8","pim":"P1","policy":"f3fs"}`,
		`{"kind":"standalone-gpu","gpu":"g8","mem_cap":64}`,
		`{"kind":"standalone-pim","pim":"p2","policy":"fcfs","mode":"vc2"}`,
		`{"gpu":"streamcluster","pim":"P1","policy":"mode-cap-fr-fcfs","mem_cap":8,"pim_cap":9}`,
		`{"gpu":"G4","pim":"P2","policy":"FR-FCFS","mode":"VC2","scale":0.05,"seed":7,"max_gpu_cycles":1000000}`,
		`{"gpu":"G8","pim":"P1","policy":"f3fs","faults":"seed=0,dram=0.002:12,throttle=40000:2000","full":true}`,
		`{"gpu":"G8","pim":"P1","policy":"f3fs","timeout_ms":18446744073710,"priority":"bulk"}`,
		`{"gpu":"G8","pim":"P1","policy":"f3fs","bogus":1}`,
		`{"gpu":"G8","pim":"P1","policy":"f3fs","mem_cap":-3}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		c, err := Canonicalize(req)
		if err != nil {
			return
		}
		if err := c.Cfg.Validate(); err != nil {
			t.Fatalf("accepted %s with an invalid config: %v", body, err)
		}
		d := c.Digest()
		again, err := Canonicalize(Request{
			Kind: c.Kind, GPU: c.GPUID, PIM: c.PIMID, Policy: c.Policy, Mode: c.Mode,
			Scale: c.Scale, Seed: c.Cfg.Seed, MaxGPUCycles: c.Cfg.MaxGPUCycles,
			MemCap: c.Cfg.Sched.F3FSMemCap, PIMCap: c.Cfg.Sched.F3FSPIMCap,
			Faults: c.Cfg.Faults.String(), Full: req.Full,
		})
		if err != nil || again.Digest() != d {
			t.Fatalf("%s: the canonical form %+v canonicalizes to %+v (%v)", body, c, again, err)
		}
		readsMem, readsPIM := core.ReadsCaps(c.Policy)
		for _, tc := range []struct {
			name  string
			cap   *int
			cur   int
			reads bool
		}{
			{"mem_cap", &req.MemCap, c.Cfg.Sched.F3FSMemCap, readsMem},
			{"pim_cap", &req.PIMCap, c.Cfg.Sched.F3FSPIMCap, readsPIM},
		} {
			saved := *tc.cap
			*tc.cap = 1
			if tc.cur == 1 {
				*tc.cap = 2
			}
			moved, err := Canonicalize(req)
			*tc.cap = saved
			if err != nil {
				t.Fatalf("%s: setting %s rejected the request: %v", body, tc.name, err)
			}
			if (moved.Digest() != d) != tc.reads {
				t.Fatalf("%s: policy %q reads %s = %v, but setting it moved the digest = %v",
					body, c.Policy, tc.name, tc.reads, moved.Digest() != d)
			}
		}
	})
}

// TestCanonicalizeRejects covers the validation errors.
func TestCanonicalizeRejects(t *testing.T) {
	bad := map[string]Request{
		"kind":       {Kind: "nope", GPU: "G8", PIM: "P1", Policy: "f3fs"},
		"no-gpu":     {PIM: "P1", Policy: "f3fs"},
		"no-pim":     {GPU: "G8", Policy: "f3fs"},
		"no-policy":  {GPU: "G8", PIM: "P1"},
		"gpu-id":     {GPU: "G999", PIM: "P1", Policy: "f3fs"},
		"pim-id":     {GPU: "G8", PIM: "P999", Policy: "f3fs"},
		"policy-val": {GPU: "G8", PIM: "P1", Policy: "magic"},
		"mode":       {GPU: "G8", PIM: "P1", Policy: "f3fs", Mode: "VC3"},
		"faults":     {GPU: "G8", PIM: "P1", Policy: "f3fs", Faults: "dram=oops"},
	}
	for name, req := range bad {
		if _, err := Canonicalize(req); err == nil {
			t.Errorf("%s: Canonicalize(%+v) accepted an invalid request", name, req)
		}
	}
	if _, err := ParseClass("urgent"); err == nil {
		t.Error("ParseClass accepted an unknown priority")
	}
}

// TestDigestShape: digests are full 64-hex-char SHA-256 strings.
func TestDigestShape(t *testing.T) {
	d := digestOf(t, Request{GPU: "G8", PIM: "P1", Policy: "f3fs"})
	if len(d) != 64 {
		t.Fatalf("digest %q has length %d, want 64", d, len(d))
	}
	for _, r := range d {
		if !strings.ContainsRune("0123456789abcdef", r) {
			t.Fatalf("digest %q contains non-hex rune %q", d, r)
		}
	}
}
