package workload

import (
	"fmt"
	"slices"

	"repro/internal/request"
)

// The profiles below are calibrated to the paper's characterization
// (Fig. 4, Sec. IV and Sec. VII-B), not to absolute GPGPU-Sim numbers:
//
//   - G4 (cfd) has the highest interconnect request rate;
//   - G15 (nn) has the highest DRAM request rate (almost no reuse, so the
//     L2 filters nothing);
//   - G6 (gaussian) has the highest bank-level parallelism with a poor
//     ~32% row-buffer hit rate;
//   - G17 (pathfinder) has the highest row-buffer hit rate;
//   - G10 (huffman) is the compute-intensive outlier;
//   - G11 (kmeans) sustains a very high MEM arrival rate at the memory
//     controller;
//   - G19 (srad_v2) generates heavy interconnect traffic that the L2
//     filters (small, reused working set);
//   - PIM kernels have near-uniform behavior: lockstep all-bank
//     execution (BLP = #banks) and high row locality from their block
//     structure, with STREAM-Scale (P4) the locality extreme (99%+).
//
// Request counts are sized for the Scaled() configuration so that one
// standalone run finishes in well under a second; sweeps pass a scale
// factor to shrink or grow them uniformly.

// gpuProfiles holds the twenty Rodinia kernel models of Table II,
// indexed G1..G20 in paper order. Nothing writes it: the exported
// lookups hand out copies.
var gpuProfiles = [...]GPUProfile{
	{ID: "G1", Name: "b+tree", Desc: "1M keys, 10000 bundled queries", Requests: 40000, Interval: 6, Streams: 4, Locality: 0.15, Reuse: 0.35, Footprint: 8 << 20, ReadFrac: 0.95},
	{ID: "G2", Name: "backprop", Desc: "655360 input nodes", Requests: 45000, Interval: 4, Streams: 4, Locality: 0.75, Reuse: 0.30, Footprint: 16 << 20, ReadFrac: 0.70},
	{ID: "G3", Name: "bfs", Desc: "1M vertices", Requests: 45000, Interval: 3, Streams: 6, Locality: 0.10, Reuse: 0.25, Footprint: 16 << 20, ReadFrac: 0.90},
	{ID: "G4", Name: "cfd", Desc: "97K elements", Requests: 60000, Interval: 1, Streams: 6, Locality: 0.55, Reuse: 0.55, HotBytes: 96 << 10, Footprint: 8 << 20, ReadFrac: 0.80},
	{ID: "G5", Name: "dwt2d", Desc: "1024x1024 images, 5/3 transform", Requests: 40000, Interval: 5, Streams: 4, Locality: 0.70, Reuse: 0.40, Footprint: 8 << 20, ReadFrac: 0.60},
	{ID: "G6", Name: "gaussian", Desc: "2048x2048 matrix", Requests: 55000, Interval: 2, Streams: 10, Locality: 0.28, Reuse: 0.15, Footprint: 32 << 20, ReadFrac: 0.75},
	{ID: "G7", Name: "heartwall", Desc: "656x744 video, 2 frames", Requests: 15000, Interval: 40, Streams: 2, Locality: 0.60, Reuse: 0.50, Footprint: 4 << 20, ReadFrac: 0.85},
	{ID: "G8", Name: "hotspot", Desc: "2048x2048, pyramid height 4", Requests: 40000, Interval: 6, Streams: 4, Locality: 0.80, Reuse: 0.45, Footprint: 16 << 20, ReadFrac: 0.80},
	{ID: "G9", Name: "hotspot3D", Desc: "512x512x8, 10 iterations", Requests: 45000, Interval: 4, Streams: 6, Locality: 0.65, Reuse: 0.35, Footprint: 24 << 20, ReadFrac: 0.80},
	{ID: "G10", Name: "huffman", Desc: "262144 elements", Requests: 12000, Interval: 60, Streams: 2, Locality: 0.40, Reuse: 0.50, Footprint: 2 << 20, ReadFrac: 0.90},
	{ID: "G11", Name: "kmeans", Desc: "494020 points, 34 features", Requests: 60000, Interval: 1, Streams: 6, Locality: 0.70, Reuse: 0.10, Footprint: 48 << 20, ReadFrac: 0.95},
	{ID: "G12", Name: "lavaMD", Desc: "1000 boxes", Requests: 15000, Interval: 35, Streams: 3, Locality: 0.55, Reuse: 0.45, Footprint: 4 << 20, ReadFrac: 0.85},
	{ID: "G13", Name: "lud", Desc: "2048x2048 data points", Requests: 40000, Interval: 8, Streams: 4, Locality: 0.60, Reuse: 0.55, Footprint: 16 << 20, ReadFrac: 0.80},
	{ID: "G14", Name: "mummergpu", Desc: "20K ref / 50K query sequences", Requests: 45000, Interval: 4, Streams: 6, Locality: 0.08, Reuse: 0.20, Footprint: 32 << 20, ReadFrac: 0.97},
	{ID: "G15", Name: "nn", Desc: "10M hurricanes, 10 nearest neighbors", Requests: 60000, Interval: 1, Streams: 8, Locality: 0.65, Reuse: 0.02, Footprint: 64 << 20, ReadFrac: 0.98},
	{ID: "G16", Name: "nw", Desc: "2048x2048 data points", Requests: 40000, Interval: 7, Streams: 3, Locality: 0.50, Reuse: 0.35, Footprint: 16 << 20, ReadFrac: 0.75},
	{ID: "G17", Name: "pathfinder", Desc: "100000x100 grid, pyramid height 4", Requests: 55000, Interval: 2, Streams: 2, Locality: 0.96, Reuse: 0.30, Footprint: 24 << 20, ReadFrac: 0.85},
	{ID: "G18", Name: "srad_v1", Desc: "512x512, 100 iterations", Requests: 40000, Interval: 5, Streams: 4, Locality: 0.70, Reuse: 0.40, Footprint: 8 << 20, ReadFrac: 0.75},
	{ID: "G19", Name: "srad_v2", Desc: "2048x2048, 2 iterations", Requests: 60000, Interval: 1, Streams: 4, Locality: 0.85, Reuse: 0.75, HotBytes: 96 << 10, Footprint: 4 << 20, ReadFrac: 0.70},
	{ID: "G20", Name: "streamcluster", Desc: "65536 points, 256 dims", Requests: 45000, Interval: 3, Streams: 6, Locality: 0.60, Reuse: 0.30, Footprint: 32 << 20, ReadFrac: 0.90},
}

// pimProfiles holds the nine PIM kernel models of Table III, indexed
// P1..P9 in paper order. Segment shapes follow the kernels' algorithms
// under the Fig. 3 programming pattern with an 8-entry per-bank register
// file. Nothing writes it: the exported lookups clone the segments.
var pimProfiles = [...]PIMProfile{
	{ID: "P1", Name: "stream-add", Desc: "c = a + b, 67M elements/vector",
		Segments: []PIMSegment{{request.PIMLoad, 8}, {request.PIMCompute, 8}, {request.PIMStore, 8}}, Blocks: 400},
	{ID: "P2", Name: "stream-copy", Desc: "c = a, 67M elements/vector",
		Segments: []PIMSegment{{request.PIMLoad, 8}, {request.PIMStore, 8}}, Blocks: 500},
	{ID: "P3", Name: "stream-daxpy", Desc: "y = a*x + y, 67M elements/vector",
		Segments: []PIMSegment{{request.PIMLoad, 8}, {request.PIMCompute, 8}, {request.PIMStore, 8}}, Blocks: 400},
	{ID: "P4", Name: "stream-scale", Desc: "y = a*x, 67M elements/vector",
		Segments: []PIMSegment{{request.PIMCompute, 64}, {request.PIMStore, 64}}, Blocks: 120},
	{ID: "P5", Name: "bn-fwd", Desc: "batchnorm forward, 8M batches x 8",
		Segments: []PIMSegment{{request.PIMLoad, 8}, {request.PIMCompute, 24}, {request.PIMStore, 8}}, Blocks: 350},
	{ID: "P6", Name: "bn-bwd", Desc: "batchnorm backward, 8M batches x 8",
		Segments: []PIMSegment{{request.PIMLoad, 8}, {request.PIMCompute, 32}, {request.PIMStore, 16}}, Blocks: 300},
	{ID: "P7", Name: "fully-connected", Desc: "16x16, 262144 batches",
		Segments: []PIMSegment{{request.PIMLoad, 8}, {request.PIMCompute, 16}, {request.PIMCompute, 16}, {request.PIMStore, 8}}, Blocks: 350},
	{ID: "P8", Name: "kmeans", Desc: "1M points, 32 features",
		Segments: []PIMSegment{{request.PIMLoad, 8}, {request.PIMCompute, 8}, {request.PIMCompute, 8}, {request.PIMCompute, 8}, {request.PIMStore, 8}}, Blocks: 300},
	{ID: "P9", Name: "grim", Desc: "8M bitvectors, 32 base pairs",
		Segments: []PIMSegment{{request.PIMLoad, 8}, {request.PIMCompute, 8}}, Blocks: 500},
}

// GPUProfiles returns the twenty Rodinia kernel models of Table II,
// indexed G1..G20 in paper order, in a fresh slice.
func GPUProfiles() []GPUProfile { return slices.Clone(gpuProfiles[:]) }

// PIMProfiles returns the nine PIM kernel models of Table III, indexed
// P1..P9 in paper order, in a fresh slice with fresh segments.
func PIMProfiles() []PIMProfile {
	out := make([]PIMProfile, len(pimProfiles))
	for i := range pimProfiles {
		out[i] = pimProfiles[i].clone()
	}
	return out
}

// clone returns p with a segment slice of its own.
func (p PIMProfile) clone() PIMProfile {
	p.Segments = slices.Clone(p.Segments)
	return p
}

// GPUProfileByID returns a copy of the profile with the given tag ("G7")
// or an error listing valid tags.
func GPUProfileByID(id string) (GPUProfile, error) {
	for i := range gpuProfiles {
		if p := &gpuProfiles[i]; p.ID == id || p.Name == id {
			return *p, nil
		}
	}
	return GPUProfile{}, fmt.Errorf("workload: unknown GPU kernel %q (want G1..G20 or a benchmark name)", id)
}

// PIMProfileByID returns a copy of the profile with the given tag ("P3"),
// its segments cloned, or an error listing valid tags.
func PIMProfileByID(id string) (PIMProfile, error) {
	for i := range pimProfiles {
		if p := &pimProfiles[i]; p.ID == id || p.Name == id {
			return p.clone(), nil
		}
	}
	return PIMProfile{}, fmt.Errorf("workload: unknown PIM kernel %q (want P1..P9 or a benchmark name)", id)
}
