// Package stats accumulates the measurements the paper reports: request
// arrival rates into the interconnect and the DRAM, bank-level parallelism
// (BLP), row-buffer hit rate (RBHR), mode-switch counts and overheads, and
// the system-level fairness and throughput metrics of Eyerman & Eeckhout
// used in Figs. 8, 10, 11, 13 and 14.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// App accumulates per-application (per-kernel) counters.
type App struct {
	// NoCInjected counts requests this app injected into the
	// interconnect (Fig. 4a's arrival rate numerator).
	NoCInjected uint64
	// MCArrived counts requests that reached the memory controller
	// queues (Fig. 4b / Fig. 6 numerator).
	MCArrived uint64
	// Completed counts requests fully serviced.
	Completed uint64
	// StallCycles is never written and stays 0: the count of SM-cycles
	// the interconnect refused an injection is KernelResult.StallCycles.
	// The field remains because pimbench's result digest prints Apps
	// with %+v, so removing it would move the committed bench digests.
	StallCycles uint64
}

// Channel accumulates per-memory-channel counters.
type Channel struct {
	// MemReads/MemWrites/PIMOps count issued column commands / PIM ops.
	MemReads  uint64
	MemWrites uint64
	PIMOps    uint64

	// RowHits/RowMisses classify MEM requests, once each, by whether
	// the target row was already open: a miss is counted at the
	// precharge or activate that prepares the request's bank (so a
	// request prepared but not yet serviced when the run ends is one),
	// a hit at a column no such command preceded.
	RowHits   uint64
	RowMisses uint64
	// PIMRowHits/PIMRowMisses do the same for lockstep PIM ops, counted
	// at the op (a miss means the all-bank row had to be re-activated).
	PIMRowHits   uint64
	PIMRowMisses uint64

	// Switches counts mode transitions; MemToPIMSwitches is the subset
	// with MEM-drain overheads.
	Switches         uint64
	MemToPIMSwitches uint64
	// DrainLatencySum accumulates the DRAM cycles each MEM->PIM switch
	// spent draining in-flight MEM requests (Fig. 10c numerator).
	DrainLatencySum uint64
	// PostSwitchConflicts counts MEM row misses on banks whose open row
	// was disturbed while the controller was in PIM mode — the
	// "additional MEM conflicts per switch" of Fig. 10b: the last command
	// on the missing bank was a PIM all-bank precharge or activate, not a
	// MEM command (a MEM column on a PIM-opened row takes the bank back).
	PostSwitchConflicts uint64

	// ActiveCycles counts DRAM cycles with at least one bank busy;
	// BankBusySum accumulates the number of busy banks over those
	// cycles. BLP = BankBusySum / ActiveCycles (Fig. 4c is measured in
	// active DRAM cycles).
	ActiveCycles uint64
	BankBusySum  uint64

	// MemQOccupancySum/PIMQOccupancySum accumulate queue occupancy per
	// DRAM cycle for average-occupancy reporting.
	MemQOccupancySum uint64
	PIMQOccupancySum uint64
	SampledCycles    uint64

	// Refreshes counts all-bank refresh commands (0 unless the
	// supplemental refresh model is enabled).
	Refreshes uint64
}

// Sim is the complete measurement record of one simulation run.
type Sim struct {
	// GPUCycles and DRAMCycles are the run lengths in each clock
	// domain.
	GPUCycles  uint64
	DRAMCycles uint64
	// Apps holds per-application counters, indexed by app ID.
	Apps []App
	// Channels holds per-channel counters.
	Channels []Channel
}

// New allocates a Sim for the given number of apps and channels.
func New(apps, channels int) *Sim {
	return &Sim{
		Apps:     make([]App, apps),
		Channels: make([]Channel, channels),
	}
}

// TotalChannel sums the per-channel counters.
func (s *Sim) TotalChannel() Channel {
	var t Channel
	for i := range s.Channels {
		c := &s.Channels[i]
		t.MemReads += c.MemReads
		t.MemWrites += c.MemWrites
		t.PIMOps += c.PIMOps
		t.RowHits += c.RowHits
		t.RowMisses += c.RowMisses
		t.PIMRowHits += c.PIMRowHits
		t.PIMRowMisses += c.PIMRowMisses
		t.Switches += c.Switches
		t.MemToPIMSwitches += c.MemToPIMSwitches
		t.DrainLatencySum += c.DrainLatencySum
		t.PostSwitchConflicts += c.PostSwitchConflicts
		t.ActiveCycles += c.ActiveCycles
		t.BankBusySum += c.BankBusySum
		t.MemQOccupancySum += c.MemQOccupancySum
		t.PIMQOccupancySum += c.PIMQOccupancySum
		t.SampledCycles += c.SampledCycles
		t.Refreshes += c.Refreshes
	}
	return t
}

// RBHR returns the MEM row-buffer hit rate, or 0 when no MEM commands
// issued.
func (c Channel) RBHR() float64 {
	total := c.RowHits + c.RowMisses
	if total == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(total)
}

// BLP returns the average bank-level parallelism over active DRAM cycles.
func (c Channel) BLP() float64 {
	if c.ActiveCycles == 0 {
		return 0
	}
	return float64(c.BankBusySum) / float64(c.ActiveCycles)
}

// DrainPerSwitch returns the average MEM-drain latency per MEM->PIM switch
// in DRAM cycles (Fig. 10c).
func (c Channel) DrainPerSwitch() float64 {
	if c.MemToPIMSwitches == 0 {
		return 0
	}
	return float64(c.DrainLatencySum) / float64(c.MemToPIMSwitches)
}

// ConflictsPerSwitch returns the average additional MEM conflicts per
// switch (Fig. 10b).
func (c Channel) ConflictsPerSwitch() float64 {
	if c.Switches == 0 {
		return 0
	}
	return float64(c.PostSwitchConflicts) / float64(c.Switches)
}

// AvgMemQ returns the average MEM queue occupancy over the sampled DRAM
// cycles (the congestion signal of Fig. 7).
func (c Channel) AvgMemQ() float64 {
	if c.SampledCycles == 0 {
		return 0
	}
	return float64(c.MemQOccupancySum) / float64(c.SampledCycles)
}

// AvgPIMQ returns the average PIM queue occupancy.
func (c Channel) AvgPIMQ() float64 {
	if c.SampledCycles == 0 {
		return 0
	}
	return float64(c.PIMQOccupancySum) / float64(c.SampledCycles)
}

// NoCArrivalRate returns an app's interconnect request arrival rate in
// requests per kilo-GPU-cycle (Fig. 4a's unit up to scaling).
func (s *Sim) NoCArrivalRate(app int) float64 {
	if s.GPUCycles == 0 {
		return 0
	}
	return 1000 * float64(s.Apps[app].NoCInjected) / float64(s.GPUCycles)
}

// MCArrivalRate returns an app's DRAM request arrival rate in requests per
// kilo-GPU-cycle (Figs. 4b and 6).
func (s *Sim) MCArrivalRate(app int) float64 {
	if s.GPUCycles == 0 {
		return 0
	}
	return 1000 * float64(s.Apps[app].MCArrived) / float64(s.GPUCycles)
}

// FairnessIndex implements Eq. 1: min(s1/s2, s2/s1). It is 1 for perfectly
// equal speedups and approaches 0 under starvation. A non-positive speedup
// (a kernel that never completed) yields 0.
func FairnessIndex(speedup1, speedup2 float64) float64 {
	if speedup1 <= 0 || speedup2 <= 0 {
		return 0
	}
	return math.Min(speedup1/speedup2, speedup2/speedup1)
}

// SystemThroughput is the sum of per-kernel speedups (Sec. III-C).
func SystemThroughput(speedups ...float64) float64 {
	var t float64
	for _, s := range speedups {
		if s > 0 {
			t += s
		}
	}
	return t
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries
// the way the paper's Fig. 10a normalization does. It returns 0 when no
// positive entries exist.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Quartiles is a five-number summary: the min, 25th, 50th, 75th
// percentile and max of a sample, matching the box-and-whisker summaries
// of Fig. 4.
type Quartiles struct {
	Min, Q1, Median, Q3, Max float64
}

// QuartilesOf computes the five-number summary of xs. The second return
// is false for an empty sample (the Quartiles are then all zero), so
// callers decide how to render missing data instead of panicking.
func QuartilesOf(xs []float64) (Quartiles, bool) {
	if len(xs) == 0 {
		return Quartiles{}, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		if len(sorted) == 1 {
			return sorted[0]
		}
		pos := p * float64(len(sorted)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= len(sorted) {
			return sorted[len(sorted)-1]
		}
		return sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	return Quartiles{
		Min:    sorted[0],
		Q1:     at(0.25),
		Median: at(0.5),
		Q3:     at(0.75),
		Max:    sorted[len(sorted)-1],
	}, true
}

// Summary renders the headline counters for debugging.
func (s *Sim) Summary() string {
	t := s.TotalChannel()
	return fmt.Sprintf(
		"gpu=%d dram=%d reads=%d writes=%d pim=%d rbhr=%.3f blp=%.2f switches=%d",
		s.GPUCycles, s.DRAMCycles, t.MemReads, t.MemWrites, t.PIMOps,
		t.RBHR(), t.BLP(), t.Switches)
}
