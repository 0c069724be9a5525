// Package exec models the paper's execution engine: 16 universal,
// fully-pipelined functional units in four symmetric clusters of four,
// each with a 32-entry reservation station; results forward back-to-back
// within a cluster and pay one extra cycle crossing clusters; a memory
// scheduler that lets no memory operation bypass a store with an unknown
// address; and the instruction window with squash/retire bookkeeping.
package exec

import (
	"tcsim/internal/bpred"
	"tcsim/internal/isa"
	"tcsim/internal/rename"
)

// UOpState tracks an in-flight instruction through the backend.
type UOpState uint8

const (
	StateInRS      UOpState = iota // issued, waiting for operands
	StateExecuting                 // dispatched to a functional unit
	StateWaitMem                   // load past AGEN, waiting for the memory scheduler
	StateComplete                  // result available (or no result to produce)
)

// GlobalCluster marks results that bypass the cluster network entirely
// (register-file reads, rename-executed moves): available to every
// cluster without penalty.
const GlobalCluster = -1

// UOp is one in-flight dynamic instruction.
type UOp struct {
	Seq  uint64 // global fetch-order sequence number
	PC   uint32
	Inst isa.Inst // executed form (fill-unit-rewritten when from the trace cache)
	Orig isa.Inst // architectural form

	// Path/speculation state.
	OnPath    bool   // matches the correct-path oracle stream
	OracleIdx uint64 // index into the oracle stream (valid when OnPath)
	Inactive  bool   // issued inactively from a trace line
	GuardSeq  uint64 // the branch whose resolution activates/discards us (when Inactive)
	FromTC    bool   // fetched from the trace cache

	// Fill-unit annotations (carried from the trace line, or defaults on
	// the instruction-cache path).
	MoveBit    bool
	DeadBit    bool
	ReassocBit bool
	ScaleAmt   uint8

	// Branch state.
	IsBranch    bool // any control transfer
	Promoted    bool
	PredValid   bool // carries a dynamic prediction token
	PredTok     bpred.Token
	BrSlot      int
	PredTaken   bool
	PredNext    uint32 // predicted next PC (fall-through or target)
	ActualTaken bool   // oracle outcome (OnPath only)
	ActualNext  uint32
	Resolved    bool

	// Checkpoint repair state (branches that may trigger recovery).
	// CkRAT points into the checkpoint pool's recycled snapshot storage
	// rather than embedding the table: it keeps the UOp small enough
	// that the engine's walks stay cache-resident and pool reuse stays
	// cheap.
	HasCheckpoint bool
	CkRAT         *rename.Snapshot
	CkRAS         bpred.RASSnapshot
	CkHist        uint32

	// Renamed operands. SrcProd[k] is the in-flight producer (nil: the
	// value is architecturally ready at issue). SrcDelay adds fixed
	// cycles to the operand's availability (the rename-pipelining cycle
	// for unrewired consumers of a same-group move).
	NSrc     int
	SrcProd  [3]*UOp
	SrcDelay [3]uint64
	SrcAddr  [3]bool // operand participates in address generation

	// Execution state.
	State         UOpState
	FU            int // functional unit (= issue slot)
	Cluster       int
	IssueCycle    uint64
	DispatchCycle uint64

	// HasResult sits with the liveness flags on one cache line: a
	// reservation-station poll reads a producer's HasResult and Dead.
	HasResult bool
	Dead      bool // squashed or discarded
	Retired   bool
	InRS      bool // currently occupies a reservation-station entry

	ResultTime    uint64 // cycle the result is available in ResultCluster
	ResultCluster int
	AddrTime      uint64 // memory ops: cycle the address is generated
	AddrKnown     bool
	EA            uint32
	DataAvail     uint64 // stores: when the data operand is available
	BypassDelayed bool   // last-arriving operand was delayed cross-cluster (Fig 7)
	HadOperands   bool   // executed on a FU with at least one register operand

	// waiters heads the list, threaded through nextWaiter, of RS-resident
	// consumers whose entries sleep until this uop's result is scheduled
	// or it dies. Both lists are empty whenever the uop leaves the window.
	waiters, nextWaiter *UOp
	// rsSlot is the uop's reservation-station slot within its FU's
	// station while InRS.
	rsSlot uint8

	// freeAfter is the Pool's deferred-reclamation watermark: the
	// highest sequence number issued when this uop left the window.
	freeAfter uint64
}

// IsLoad reports whether the uop reads data memory.
func (u *UOp) IsLoad() bool { return u.Inst.Op.IsLoad() }

// IsStore reports whether the uop writes data memory.
func (u *UOp) IsStore() bool { return u.Inst.Op.IsStore() }

// IsMem reports whether the uop accesses data memory.
func (u *UOp) IsMem() bool { return u.Inst.Op.IsMem() }

// NeedsFU reports whether the uop occupies a functional unit. Marked
// moves execute in rename; NOPs, direct jumps, calls and serializing
// instructions produce nothing the backend must compute (a JAL's link
// value is known at rename).
func (u *UOp) NeedsFU() bool {
	if u.MoveBit || u.DeadBit {
		return false
	}
	switch u.Inst.Op {
	case isa.NOP, isa.J, isa.JAL, isa.HALT, isa.OUT, isa.BAD:
		return false
	}
	return true
}

// operandAvail returns the cycle operand k becomes usable by a consumer
// executing in cluster c, and whether that time is known yet (false while
// the producer has not been scheduled). penalty is the cross-cluster
// bypass latency.
func (u *UOp) operandAvail(k, c, penalty int) (uint64, bool) {
	p := u.SrcProd[k]
	if p == nil || p.Dead {
		return u.IssueCycle + u.SrcDelay[k], true
	}
	if !p.HasResult {
		return 0, false
	}
	t := p.ResultTime
	if p.ResultCluster != GlobalCluster && p.ResultCluster != c {
		t += uint64(penalty)
	}
	if t < u.IssueCycle {
		t = u.IssueCycle
	}
	return t + u.SrcDelay[k], true
}

// operandAvailNoPenalty is operandAvail as if the bypass network were
// free of cross-cluster latency; the difference drives the Figure 7
// statistic.
func (u *UOp) operandAvailNoPenalty(k int) (uint64, bool) {
	p := u.SrcProd[k]
	if p == nil || p.Dead {
		return u.IssueCycle + u.SrcDelay[k], true
	}
	if !p.HasResult {
		return 0, false
	}
	t := p.ResultTime
	if t < u.IssueCycle {
		t = u.IssueCycle
	}
	return t + u.SrcDelay[k], true
}

// readyAt computes the dispatch-ready time over the given operand
// subset (address-only for memory AGEN, all otherwise). It returns
// (readyTime, delayedByBypass, known).
func (u *UOp) readyAt(c, penalty int, addrOnly bool) (uint64, bool, bool) {
	var tPen, tFree uint64
	for k := 0; k < u.NSrc; k++ {
		if addrOnly && !u.SrcAddr[k] {
			continue
		}
		ap, ok := u.operandAvail(k, c, penalty)
		if !ok {
			return 0, false, false
		}
		af, _ := u.operandAvailNoPenalty(k)
		if ap > tPen {
			tPen = ap
		}
		if af > tFree {
			tFree = af
		}
	}
	if tPen < u.IssueCycle {
		tPen = u.IssueCycle
	}
	if tFree < u.IssueCycle {
		tFree = u.IssueCycle
	}
	return tPen, tPen > tFree, true
}
