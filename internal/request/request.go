// Package request defines the memory request types exchanged between the
// GPU cores, the interconnect, the caches, and the memory controller.
//
// The simulator distinguishes two request classes, mirroring the paper's
// terminology: MEM requests (ordinary loads and stores issued by GPU
// kernels) and PIM requests (cache-streaming stores that encode PIM
// operations and are executed in-place by the per-bank PIM functional
// units). MEM and PIM requests cannot be serviced concurrently by a
// channel; the memory controller switches between MEM mode and PIM mode.
package request

import "fmt"

// Kind identifies what a request asks the memory system to do.
type Kind uint8

const (
	// MemRead is an ordinary load that misses in the caches and reads a
	// DRAM burst.
	MemRead Kind = iota
	// MemWrite is an ordinary store (or an L2 dirty writeback) that
	// writes a DRAM burst.
	MemWrite
	// PIMOp is a cache-streaming store encoding one PIM operation. It
	// bypasses all caches and executes on every bank of its channel in
	// lockstep while the controller is in PIM mode.
	PIMOp
)

// String returns the conventional short name for the kind.
func (k Kind) String() string {
	switch k {
	case MemRead:
		return "READ"
	case MemWrite:
		return "WRITE"
	case PIMOp:
		return "PIM"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k)) //pimlint:coldpath — not a defined kind
}

// IsPIM reports whether the kind is serviced in PIM mode.
func (k Kind) IsPIM() bool { return k == PIMOp }

// PIMOpKind identifies the operation a PIM request performs at the
// functional unit. The distinction only matters for statistics and for the
// register-file correctness checks; all kinds share the same timing.
type PIMOpKind uint8

const (
	// PIMLoad copies one DRAM word per bank from the open row into the
	// PIM register file.
	PIMLoad PIMOpKind = iota
	// PIMCompute reads one DRAM word per bank, combines it with a
	// register-file entry through the SIMD ALU, and writes the result
	// back to the register file.
	PIMCompute
	// PIMStore writes one register-file entry per bank into the open
	// row.
	PIMStore
)

// String returns the mnemonic used in traces.
func (k PIMOpKind) String() string {
	switch k {
	case PIMLoad:
		return "pim.load"
	case PIMCompute:
		return "pim.op"
	case PIMStore:
		return "pim.store"
	}
	return fmt.Sprintf("PIMOpKind(%d)", uint8(k)) //pimlint:coldpath — not a defined kind
}

// PIMInfo carries the PIM-specific payload of a PIMOp request.
type PIMInfo struct {
	// Op is the operation performed at the functional unit.
	Op PIMOpKind
	// RFEntry is the register-file entry (per bank) the operation reads
	// or writes. Valid entries are 0..RFSizePerBank-1.
	RFEntry int
	// Block is the index of the kernel block this op belongs to. Ops of
	// the same block address the same row; blocks execute sequentially.
	Block int
}

// Request is a single memory-system transaction. One request corresponds
// to one access-granularity burst (bus width x burst length bytes) and one
// interconnect flit.
//
// Requests are created by the GPU cores, decorated with their decoded
// channel/bank/row/column coordinates by the address mapper, and threaded
// through the interconnect queues to the per-channel memory controller.
type Request struct {
	// ID is unique across the simulation and increases in creation
	// order.
	ID uint64
	// Kind is the request class.
	Kind Kind
	// Addr is the byte address of the access.
	Addr uint64

	// Decoded coordinates (filled by addrmap.Mapper.Decode).
	Channel int
	Bank    int
	Row     uint32
	Col     uint32

	// SM is the index of the issuing streaming multiprocessor.
	SM int
	// App identifies the kernel (application) that issued the request.
	// In the paper's two-tenant scenarios app 0 is the GPU kernel and
	// app 1 the PIM kernel.
	App int

	// InjectGPUCycle is the GPU cycle at which the request entered the
	// interconnect.
	InjectGPUCycle uint64
	// ArriveMCCycle is the DRAM cycle at which the request entered the
	// memory controller queues.
	ArriveMCCycle uint64
	// SeqNo is the controller-assigned age: an incrementing ID assigned
	// as the request enters the memory controller (Sec. VII). Lower is
	// older.
	SeqNo uint64

	// PIM is non-nil iff Kind == PIMOp. SetPIM points it at storage inside
	// the request, so a PIM op is one object, not two.
	PIM *PIMInfo
	pim PIMInfo

	// Synthetic marks memory-system-generated traffic (L1/L2 dirty
	// writebacks). Synthetic requests occupy queues and DRAM bandwidth
	// but do not count toward kernel completion.
	Synthetic bool

	// L1Fetch marks a request that allocated an L1 MSHR on its way out
	// of the SM; its response must fill the L1 and release merged
	// requests before kernel completion accounting. L2Fetch marks an L2
	// MSHR primary the same way (a synthetic L1 writeback can be an L2
	// fetch primary, so the flags are independent of Synthetic).
	L1Fetch bool
	L2Fetch bool

	// RowClassified marks that the memory controller has already
	// recorded this request's row hit/miss classification (each request
	// is classified exactly once, on its first scheduling attempt).
	// WasRowHit holds the recorded classification.
	RowClassified bool
	WasRowHit     bool

	// released is set while the object sits in a Pool's free list; the
	// simdebug lifecycle assertions read it (AssertLive, Pool.Put).
	released bool
}

// SetPIM stores the PIM payload inside the request and points PIM at it.
func (r *Request) SetPIM(info PIMInfo) {
	r.pim = info
	r.PIM = &r.pim
}

// IsWrite reports whether the request writes DRAM (MemWrite or PIMOp;
// PIM ops are encoded as non-temporal stores by the host).
func (r *Request) IsWrite() bool { return r.Kind != MemRead }

// String renders a compact single-line description, useful in test
// failures and traces.
func (r *Request) String() string {
	if r.Kind == PIMOp {
		return fmt.Sprintf("req#%d %s ch%d row%d blk%d %s", r.ID, r.Kind, r.Channel, r.Row, r.PIM.Block, r.PIM.Op)
	}
	return fmt.Sprintf("req#%d %s ch%d b%d row%d col%d", r.ID, r.Kind, r.Channel, r.Bank, r.Row, r.Col)
}
