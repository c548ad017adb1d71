// Package config collects every architectural parameter of the simulated
// PIM-enabled GPU system. Paper() reproduces Table I of the paper exactly;
// Scaled() is a reduced configuration with identical structure that lets
// the full experiment sweeps finish in minutes on a laptop.
package config

import (
	"fmt"

	"repro/internal/faults"
)

// GPU holds the host-processor parameters (Table I, top half).
type GPU struct {
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// CoreClockMHz is the SM clock. The interconnect and L2 run in this
	// domain.
	CoreClockMHz int
	// PIMSMs is the number of SMs a PIM kernel occupies to saturate the
	// memory interface (8 in the paper: 4 warps per SM, one warp per
	// channel across 32 channels). GPU kernels in co-execution get
	// NumSMs-PIMSMs.
	PIMSMs int
	// MaxOutstanding is the per-SM limit on in-flight MEM loads (an
	// MSHR-style window).
	MaxOutstanding int
	// InjectQueue is the per-SM interconnect injection buffer, in
	// requests per virtual channel.
	InjectQueue int
	// ResponseLatency is the fixed GPU-cycle latency of the return path
	// from L2/MC back to the SM. The paper's congestion story is about
	// the request path; the response network is modeled as contention
	// free.
	ResponseLatency int
}

// DRAMTiming holds the HBM timing parameters in DRAM cycles. The first
// block reproduces Table I exactly; the second block are supplemental
// JEDEC-style constraints the paper does not list (bus turnaround and
// refresh) — they default to disabled/zero so the Table I behavior is the
// baseline, and can be enabled for sensitivity studies.
type DRAMTiming struct {
	TCCDS int // column-to-column, different bank group
	TCCDL int // column-to-column, same bank group
	TRRD  int // activate-to-activate, different banks
	TRCD  int // activate-to-column
	TRP   int // precharge-to-activate
	TRAS  int // activate-to-precharge
	TCL   int // read column-to-data
	TWL   int // write column-to-data
	TWR   int // end of write data to precharge
	TRTP  int // read-to-precharge (tRTPL)

	// TWTR delays a read column command after the end of write data
	// (write-to-read turnaround); TRTW delays a write column command
	// after a read command. Zero disables each (Table I baseline).
	TWTR int
	TRTW int
	// TREFI is the all-bank refresh interval and TRFC the refresh
	// cycle time. TREFI == 0 disables refresh (Table I baseline).
	TREFI int
	TRFC  int
	// TFAW is the rolling four-activate window: at most four per-bank
	// activates may issue in any TFAW cycles. Zero disables it
	// (Table I baseline). Broadcast PIM activation is exempt, like
	// tRRD (dedicated PIM-mode command bandwidth).
	TFAW int
}

// AddressMap selects the physical-to-DRAM address mapping scheme.
type AddressMap int

const (
	// MapInterleaved is the regular Table I scheme the paper adopts to
	// facilitate PIM programming (each warp pins to one channel).
	MapInterleaved AddressMap = iota
	// MapIPoly is pseudo-random I-poly channel interleaving (Rau), the
	// GPU default the paper turned OFF (Sec. III-B); provided so the
	// cost of the regular map can be measured.
	MapIPoly
)

// String names the mapping scheme.
func (m AddressMap) String() string {
	if m == MapIPoly {
		return "ipoly"
	}
	return "interleaved"
}

// PagePolicy selects how the MEM-mode engine manages row buffers.
type PagePolicy int

const (
	// PageOpen leaves rows open after a column access, betting on row
	// locality (the policy every configuration in the paper uses).
	PageOpen PagePolicy = iota
	// PageClosed auto-precharges after every column access, an
	// extension knob for measuring how much of the paper's results
	// depend on row-buffer locality.
	PageClosed
)

// String names the policy.
func (p PagePolicy) String() string {
	if p == PageClosed {
		return "closed-page"
	}
	return "open-page"
}

// Memory holds the memory-system parameters (Table I, bottom half).
type Memory struct {
	Channels    int // HBM channels
	Banks       int // banks per channel
	BankGroups  int // bank groups per channel (tCCDl applies within one)
	Rows        int // rows per bank
	Columns     int // access-granularity columns per row
	BusWidthB   int // data bus width in bytes
	BurstLength int // beats per access
	ClockMHz    int // DRAM command clock
	MemQSize    int // memory-controller MEM queue entries
	PIMQSize    int // memory-controller PIM queue entries
	Mapping     AddressMap
	Page        PagePolicy
	Timing      DRAMTiming
}

// AccessBytes returns the bytes moved per request (bus width x burst).
func (m Memory) AccessBytes() int { return m.BusWidthB * m.BurstLength }

// PIM holds the processing-in-memory parameters.
type PIM struct {
	// FUsPerChannel is the number of PIM functional units per channel,
	// one per bank pair: Validate holds it to Banks/2.
	FUsPerChannel int
	// RFSize is the register-file entries per FU; each bank of the pair
	// receives RFSize/2 entries (8 of 16 in the paper).
	RFSize int
	// OpCycles is the DRAM-cycle occupancy of one lockstep PIM
	// operation across all banks (defaults to tCCDl).
	OpCycles int
	// DualRowBuffer gives PIM its own per-bank row buffer, the NeuPIMs
	// architecture the paper's related work discusses: PIM broadcast
	// activity no longer displaces MEM's open rows (and vice versa), so
	// the "additional MEM conflicts per switch" of Fig. 10b vanish.
	// MEM and PIM execution stays mutually exclusive; only row-buffer
	// state is duplicated. Off by default (F3FS makes no such
	// assumption).
	DualRowBuffer bool
}

// banksPerFU is the Fig. 2 geometry: one PIM functional unit per bank
// pair, its register file split evenly between the two banks.
const banksPerFU = 2

// RFPerBank returns the register-file entries available to one bank.
func (p PIM) RFPerBank() int { return p.RFSize / banksPerFU }

// VCMode selects the interconnect configuration of Sec. V.
type VCMode int

const (
	// VC1 is the baseline: MEM and PIM requests share every queue from
	// the SMs to the memory controller (Fig. 7a).
	VC1 VCMode = iota
	// VC2 adds a separate virtual channel for PIM requests; each shared
	// queue is split in half so total buffering matches VC1 (Fig. 7b).
	VC2
)

// String returns "VC1" or "VC2".
func (m VCMode) String() string {
	if m == VC2 {
		return "VC2"
	}
	return "VC1"
}

// NoC holds the interconnect parameters.
type NoC struct {
	// Mode selects the shared (VC1) or split (VC2) configuration.
	Mode VCMode
	// BufferSize is the per-channel request buffering between the
	// interconnect and the L2, and between the L2 and the memory
	// controller, in requests (512 in Table I; Fig. 14b sweeps
	// 256..1024). Under VC2 each of the two virtual-channel queues gets
	// half.
	BufferSize int
	// ChannelsPerCycle is how many requests one memory-side port
	// accepts per GPU cycle (crossbar output bandwidth).
	ChannelsPerCycle int
}

// Cache holds the cache-hierarchy parameters. The L2 is sliced per
// channel; each SM additionally has a private L1D. MEM requests are
// filtered by both levels while PIM requests (cache-streaming stores)
// bypass the entire hierarchy (Sec. III-A).
type Cache struct {
	// TotalBytes is the aggregate L2 capacity (6 MB in Table I).
	TotalBytes int
	// LineBytes is the line size; the simulator uses the access
	// granularity so one request is one line. Validate holds it to a
	// power of two of at least 8: a slice masks addresses down to their
	// line, and keeps each line's three state flags in the low bits of
	// its line address, which that alignment leaves zero.
	LineBytes int
	// Ways is the set associativity of each slice (positive).
	Ways int
	// MSHRs is the per-slice limit on outstanding misses (positive: a
	// slice without one could never miss).
	MSHRs int
	// HitLatency is the GPU-cycle latency of an L2 hit.
	HitLatency int

	// L1Bytes is the per-SM L1D capacity (32 KB in Table I; 0 disables
	// the L1 and injects raw SM traffic into the interconnect).
	L1Bytes int
	// L1Ways/L1MSHRs/L1HitLatency configure the L1D slices.
	L1Ways       int
	L1MSHRs      int
	L1HitLatency int
}

// SliceBytes returns the capacity of one per-channel slice.
func (c Cache) SliceBytes(channels int) int { return c.TotalBytes / channels }

// Sched holds the scheduling-policy knobs shared across policies.
type Sched struct {
	// FRFCFSCap is the row-hit bypass cap for FR-FCFS-Cap (32 in the
	// paper, "set empirically").
	FRFCFSCap int
	// BlissThreshold is the consecutive-request blacklist threshold (4).
	BlissThreshold int
	// BlissClearInterval is the blacklist clearing period in DRAM
	// cycles ("every few thousand cycles").
	BlissClearInterval int
	// GIHighWatermark and GILowWatermark are the Gather&Issue PIM queue
	// occupancy thresholds (56 and 32).
	GIHighWatermark int
	GILowWatermark  int
	// F3FSMemCap and F3FSPIMCap are the per-mode bypass caps of F3FS.
	// Competitive co-execution uses symmetric caps (256/256);
	// collaborative tuning may set them asymmetrically (Sec. VII-B).
	F3FSMemCap int
	F3FSPIMCap int
}

// Config is the complete system configuration.
type Config struct {
	GPU    GPU
	Memory Memory
	PIM    PIM
	NoC    NoC
	Cache  Cache
	Sched  Sched
	// Seed is the base seed for all workload randomness; runs with the
	// same Config and workloads are bit-identical.
	Seed int64
	// MaxGPUCycles aborts a simulation that fails to converge.
	MaxGPUCycles uint64
	// Faults is the optional transient-fault schedule (internal/faults).
	// The zero value disables injection and keeps runs bit-identical to a
	// fault-free build; a schedule with Seed 0 inherits Config.Seed.
	Faults faults.Schedule
}

// Paper returns the full Table I configuration.
func Paper() Config {
	return Config{
		GPU: GPU{
			NumSMs:          80,
			CoreClockMHz:    1132,
			PIMSMs:          8,
			MaxOutstanding:  64,
			InjectQueue:     16,
			ResponseLatency: 60,
		},
		Memory: Memory{
			Channels:    32,
			Banks:       16,
			BankGroups:  4,
			Rows:        8192, // 13 row bits per Table I's address map
			Columns:     64,   // 2 KB row / 32 B access
			BusWidthB:   16,
			BurstLength: 2,
			ClockMHz:    850,
			MemQSize:    64,
			PIMQSize:    64,
			Timing: DRAMTiming{
				TCCDS: 1, TCCDL: 2, TRRD: 3, TRCD: 12, TRP: 12,
				TRAS: 28, TCL: 12, TWL: 2, TWR: 10, TRTP: 3,
			},
		},
		PIM: PIM{
			FUsPerChannel: 8,
			RFSize:        16,
			OpCycles:      2,
		},
		NoC: NoC{
			Mode:             VC1,
			BufferSize:       512,
			ChannelsPerCycle: 1,
		},
		Cache: Cache{
			TotalBytes:   6 << 20,
			LineBytes:    32,
			Ways:         16,
			MSHRs:        48,
			HitLatency:   30,
			L1Bytes:      32 << 10,
			L1Ways:       8,
			L1MSHRs:      64,
			L1HitLatency: 10,
		},
		Sched: Sched{
			FRFCFSCap:          32,
			BlissThreshold:     4,
			BlissClearInterval: 4000,
			GIHighWatermark:    56,
			GILowWatermark:     32,
			F3FSMemCap:         256,
			F3FSPIMCap:         256,
		},
		Seed:         1,
		MaxGPUCycles: 500_000_000,
	}
}

// Scaled returns a reduced configuration used by the test suite and the
// default benchmark sweeps: 8 channels instead of 32 and 20 SMs instead of
// 80, with the SM/channel and PIM-SM ratios of the paper preserved
// (PIMSMs = Channels/4 warps at 4 warps per SM). All timing parameters,
// queue depths, and policy knobs are unchanged from Paper().
func Scaled() Config {
	c := Paper()
	c.GPU.NumSMs = 20
	c.GPU.PIMSMs = 2 // 8 warps -> one per channel across 8 channels
	c.Memory.Channels = 8
	c.Memory.Rows = 4096
	c.Cache.TotalBytes = 1536 << 10 // keep 192 KB per slice, as in Paper()
	c.MaxGPUCycles = 6_000_000
	return c
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated invariant.
func (c Config) Validate() error {
	switch {
	case c.GPU.NumSMs <= 0:
		return fmt.Errorf("config: NumSMs must be positive, got %d", c.GPU.NumSMs)
	case c.GPU.PIMSMs <= 0 || c.GPU.PIMSMs >= c.GPU.NumSMs:
		return fmt.Errorf("config: PIMSMs must be in (0, NumSMs), got %d", c.GPU.PIMSMs)
	case c.Memory.Channels <= 0 || c.Memory.Channels&(c.Memory.Channels-1) != 0:
		return fmt.Errorf("config: Channels must be a positive power of two, got %d", c.Memory.Channels)
	case c.Memory.Banks <= 0 || c.Memory.Banks&(c.Memory.Banks-1) != 0:
		return fmt.Errorf("config: Banks must be a positive power of two, got %d", c.Memory.Banks)
	case c.Memory.BankGroups <= 0 || c.Memory.Banks%c.Memory.BankGroups != 0:
		return fmt.Errorf("config: BankGroups must divide Banks, got %d/%d", c.Memory.BankGroups, c.Memory.Banks)
	case c.PIM.FUsPerChannel*banksPerFU != c.Memory.Banks:
		return fmt.Errorf("config: FUsPerChannel must be Banks/%d (one FU per bank pair), got %d for %d banks", banksPerFU, c.PIM.FUsPerChannel, c.Memory.Banks)
	case c.PIM.RFSize%banksPerFU != 0 || c.PIM.RFPerBank() < 1 || c.PIM.RFPerBank() > 64:
		// A lockstep op defines the same entry on every bank, so pim.Units
		// keeps one validity bit per entry in a single word.
		return fmt.Errorf("config: RFSize must split into 1..64 entries per bank, got %d", c.PIM.RFSize)
	case c.Memory.MemQSize <= 0 || c.Memory.PIMQSize <= 0:
		return fmt.Errorf("config: queue sizes must be positive, got MEM %d PIM %d", c.Memory.MemQSize, c.Memory.PIMQSize)
	case c.NoC.BufferSize < 2:
		return fmt.Errorf("config: NoC buffer must hold at least 2 requests, got %d", c.NoC.BufferSize)
	case c.Cache.LineBytes < 8 || c.Cache.LineBytes&(c.Cache.LineBytes-1) != 0:
		return fmt.Errorf("config: cache LineBytes must be a power of two of at least 8, got %d", c.Cache.LineBytes)
	case c.Cache.Ways <= 0 || c.Cache.MSHRs <= 0:
		return fmt.Errorf("config: L2 ways and MSHRs must be positive, got %d/%d", c.Cache.Ways, c.Cache.MSHRs)
	case c.Cache.TotalBytes%c.Memory.Channels != 0:
		return fmt.Errorf("config: L2 capacity %d not divisible across %d channels", c.Cache.TotalBytes, c.Memory.Channels)
	case c.Cache.L1Bytes > 0 && (c.Cache.L1Ways <= 0 || c.Cache.L1MSHRs <= 0 || c.Cache.L1HitLatency < 0):
		return fmt.Errorf("config: L1 enabled but ways/MSHRs/latency invalid (%d/%d/%d)",
			c.Cache.L1Ways, c.Cache.L1MSHRs, c.Cache.L1HitLatency)
	case c.GPU.CoreClockMHz <= 0 || c.Memory.ClockMHz <= 0:
		return fmt.Errorf("config: clocks must be positive")
	case c.Sched.GILowWatermark >= c.Sched.GIHighWatermark:
		return fmt.Errorf("config: G&I low watermark %d must be below high %d", c.Sched.GILowWatermark, c.Sched.GIHighWatermark)
	case c.Sched.F3FSMemCap <= 0 || c.Sched.F3FSPIMCap <= 0:
		return fmt.Errorf("config: F3FS caps must be positive")
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}
