package core

import (
	"fmt"

	"tcsim/internal/bpred"
	"tcsim/internal/emu"
	"tcsim/internal/isa"
	"tcsim/internal/obs"
	"tcsim/internal/trace"
)

// FillUnit collects retired instructions into trace segments, optimizes
// them, and delivers finished segments after the configured fill latency.
type FillUnit struct {
	cfg  Config
	bias *bpred.BiasTable // shared with the front end; may be nil

	cur    *trace.Segment // segment under construction
	block  []pendInst     // current block buffer (packing disabled only)
	nextID uint64

	armed   armedBuffer // fetch addresses that missed in the TC
	cfBlock int         // architectural basic-block counter within cur

	pipe     []pendingSeg // finished segments waiting out the fill latency
	pipeHead int
	drainOut []*trace.Segment // Drain's reused result slice

	segFree []*trace.Segment // recycled segment storage

	opts *Pipeline // optimization pass pipeline, built once at New

	Stats Stats
}

// maxArmed bounds the pending-miss address buffer.
const maxArmed = 16

// armedBuffer is a fixed-capacity FIFO of armed miss addresses with O(1)
// arm, disarm and oldest-eviction: a doubly-linked list threaded through
// fixed node arrays, plus an index map for membership tests. It replaces
// the map + slice pair whose disarm path memmoved the FIFO on every
// consumed arm.
type armedBuffer struct {
	idx        map[uint32]int8
	pc         [maxArmed]uint32
	next, prev [maxArmed]int8
	head, tail int8 // FIFO order: head is oldest
	free       int8 // free-node list through next[]
}

// init empties the buffer, keeping its index map.
func (a *armedBuffer) init() {
	if a.idx == nil {
		a.idx = make(map[uint32]int8, maxArmed)
	} else {
		clear(a.idx)
	}
	for i := range a.next {
		a.next[i] = int8(i) + 1
	}
	a.next[maxArmed-1] = -1
	a.head, a.tail, a.free = -1, -1, 0
}

// add arms pc, evicting the oldest entry when full. No-op if present.
func (a *armedBuffer) add(pc uint32) {
	if _, ok := a.idx[pc]; ok {
		return
	}
	if a.free < 0 {
		a.remove(a.head)
	}
	n := a.free
	a.free = a.next[n]
	a.pc[n] = pc
	a.next[n] = -1
	a.prev[n] = a.tail
	if a.tail >= 0 {
		a.next[a.tail] = n
	} else {
		a.head = n
	}
	a.tail = n
	a.idx[pc] = n
}

// take disarms pc, reporting whether it was armed.
func (a *armedBuffer) take(pc uint32) bool {
	n, ok := a.idx[pc]
	if !ok {
		return false
	}
	a.remove(n)
	return true
}

func (a *armedBuffer) remove(n int8) {
	delete(a.idx, a.pc[n])
	p, x := a.prev[n], a.next[n]
	if p >= 0 {
		a.next[p] = x
	} else {
		a.head = x
	}
	if x >= 0 {
		a.prev[x] = p
	} else {
		a.tail = p
	}
	a.next[n] = a.free
	a.free = n
}

type pendInst struct {
	rec      emu.Record
	promoted bool
	dir      bool
}

type pendingSeg struct {
	seg   *trace.Segment
	ready uint64
}

// New builds a fill unit. bias may be nil to disable promotion lookups
// regardless of cfg.Promotion.
//
// The optimization pipeline is constructed here, once: an explicit
// cfg.Passes spec selects and orders the passes (and overrides cfg.Opt);
// an empty spec derives the paper's canonical order from the cfg.Opt
// booleans. An invalid spec — unknown pass, duplicate, or an order that
// violates a registered constraint — is an error, never a silent
// reordering.
func New(cfg Config, bias *bpred.BiasTable) (*FillUnit, error) {
	f := new(FillUnit)
	if err := f.Reset(cfg, bias); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset re-initializes f in place for another run, exactly as New
// builds a fill unit; New is Reset applied to an empty FillUnit. Segment
// storage is kept for reuse, including the segments under construction
// or in the fill pipe; the pass pipeline is built anew. After an error
// f must not be used.
func (f *FillUnit) Reset(cfg Config, bias *bpred.BiasTable) error {
	cfg = cfg.normalize()
	spec := cfg.Passes
	if len(spec) == 0 {
		spec = cfg.Opt.PassSpec()
	}
	free := f.segFree
	if f.cur != nil {
		free = append(free, f.cur)
	}
	for _, ps := range f.pipe[f.pipeHead:] {
		free = append(free, ps.seg)
	}
	clear(f.pipe)
	clear(f.drainOut)
	*f = FillUnit{
		cfg:      cfg,
		bias:     bias,
		block:    f.block[:0],
		armed:    f.armed,
		pipe:     f.pipe[:0],
		drainOut: f.drainOut[:0],
		segFree:  free,
	}
	f.armed.init()
	opts, err := NewPipeline(f, spec)
	if err != nil {
		return err
	}
	f.opts = opts
	// Keep the boolean view coherent with what actually runs, so
	// Config() reports the effective selection under an explicit spec.
	f.cfg.Opt = OptimizationsForSpec(spec)
	return nil
}

// MustNew is New for configurations known to be valid (tests, examples,
// derived-from-Opt specs); it panics on an invalid pass spec.
func MustNew(cfg Config, bias *bpred.BiasTable) *FillUnit {
	f, err := New(cfg, bias)
	if err != nil {
		panic(err)
	}
	return f
}

// NoteMiss arms segment construction at a fetch address that missed in
// the trace cache. When the retire stream reaches an armed address (and
// the fill unit is between segments), a new segment starts there — this
// keeps segment start addresses aligned with the addresses the fetch
// unit actually probes.
func (f *FillUnit) NoteMiss(pc uint32) {
	if !f.cfg.FillOnMiss {
		return
	}
	f.armed.add(pc)
}

func (f *FillUnit) consumeArm(pc uint32) bool {
	return f.armed.take(pc)
}

// Config returns the normalized configuration.
func (f *FillUnit) Config() Config { return f.cfg }

// Collect feeds one retired instruction to the fill unit at the given
// cycle. Retirement order is program order, so segments are built along
// the executed path.
func (f *FillUnit) Collect(rec emu.Record, cycle uint64) {
	pi := pendInst{rec: rec}
	if rec.Inst.Op.IsCondBranch() && f.cfg.Promotion && f.bias != nil {
		if dir, ok := f.bias.Promoted(rec.PC); ok && dir == rec.Taken {
			pi.promoted, pi.dir = true, dir
		}
	}

	if f.cfg.TracePacking {
		f.appendInst(pi, cycle)
	} else {
		f.block = append(f.block, pi)
		if isBlockEnd(rec.Inst) {
			f.flushBlock(cycle)
		}
	}

	// Returns, non-call indirect jumps and serializing instructions force
	// the segment to terminate (paper §3). Subroutine calls — including
	// indirect calls — do not: segments cross procedure boundaries.
	if op := rec.Inst.Op; (op.IsIndirect() && !op.IsCall()) || op.IsSerializing() {
		f.flushBlock(cycle)
		f.finalize(cycle)
	}
}

// isBlockEnd reports whether inst ends a basic block for packing
// purposes: any control transfer does.
func isBlockEnd(inst isa.Inst) bool { return inst.Op.IsControl() }

// flushBlock appends the buffered block (packing disabled); with packing
// enabled the buffer is always empty.
func (f *FillUnit) flushBlock(cycle uint64) {
	if len(f.block) == 0 {
		return
	}
	blk := f.block
	f.block = f.block[:0]
	// If the whole block does not fit in the remaining slots, finalize
	// first so the block starts a fresh segment (no mid-block splits).
	if f.cur != nil && len(f.cur.Insts)+len(blk) > trace.MaxInsts {
		f.finalize(cycle)
	}
	for _, pi := range blk {
		f.appendInst(pi, cycle)
	}
}

// appendInst adds one instruction to the segment under construction,
// finalizing and restarting as the structural limits demand.
func (f *FillUnit) appendInst(pi pendInst, cycle uint64) {
	rec := pi.rec
	cond := rec.Inst.Op.IsCondBranch() && !pi.promoted

	if f.cur != nil {
		// A non-promoted conditional branch that would be the 4th
		// terminates the line before it (paper: at most 3).
		if cond && f.cur.CondBranches >= trace.MaxCondBranch {
			f.finalize(cycle)
		} else if len(f.cur.Insts) >= trace.MaxInsts {
			f.finalize(cycle)
		} else if len(f.cur.Insts) > 0 {
			// Discontinuity guard: a segment must follow one dynamic
			// path. Retirement is sequential, but a pipeline flush can
			// leave a stale partial segment; drop it.
			last := f.cur.Insts[len(f.cur.Insts)-1]
			if !validSuccessor(last, rec.PC) {
				f.abandon()
			}
		}
	}
	if f.cur == nil {
		// Between segments: in fetch-aligned mode, only start a new
		// segment at an address the fetch unit reported as a trace-cache
		// miss; other retired instructions pass by uncollected.
		if f.cfg.FillOnMiss && !f.consumeArm(rec.PC) {
			return
		}
		f.cur = f.newSegment(rec.PC)
		f.cfBlock = 0
	}

	si := trace.SegInst{
		PC:      rec.PC,
		Inst:    rec.Inst,
		Orig:    rec.Inst,
		Block:   f.cur.Blocks,
		CFBlock: f.cfBlock,
		BrSlot:  trace.NoSlot,
		Slot:    len(f.cur.Insts),
	}
	if rec.Inst.Op.IsCondBranch() {
		if pi.promoted {
			si.Promoted = true
			si.PromotedDir = pi.dir
			f.Stats.PromotedInLine++
		} else {
			si.BrSlot = f.cur.CondBranches
			f.cur.CondBranches++
		}
	}
	f.cur.Insts = append(f.cur.Insts, si)
	f.Stats.InstsCollected++

	// A non-promoted conditional branch opens the next block; the 2-bit
	// block-id field accommodates the trailing block after the 3rd
	// branch, and the CondBranches guard above keeps a 4th branch out.
	if rec.Inst.Op.IsCondBranch() && !si.Promoted {
		f.cur.Blocks++
	}
	// Any control transfer opens a new architectural basic block.
	if rec.Inst.Op.IsControl() {
		f.cfBlock++
	}
}

// validSuccessor reports whether pc can follow last on a dynamic path.
func validSuccessor(last trace.SegInst, pc uint32) bool {
	op := last.Inst.Op
	switch {
	case op.IsCondBranch():
		return pc == last.PC+isa.InstBytes || pc == last.Orig.BranchTarget(last.PC)
	case op.IsUncondJump():
		return pc == last.Orig.BranchTarget(last.PC)
	case op == isa.JALR:
		return true // dynamic callee: any successor is plausible
	case op.IsIndirect(), op.IsSerializing():
		return false
	default:
		return pc == last.PC+isa.InstBytes
	}
}

// newSegment draws segment storage from the recycle pool (or allocates
// a fresh one with full backing capacity) and stamps the header.
func (f *FillUnit) newSegment(startPC uint32) *trace.Segment {
	var seg *trace.Segment
	if n := len(f.segFree); n > 0 {
		seg = f.segFree[n-1]
		f.segFree[n-1] = nil
		f.segFree = f.segFree[:n-1]
		seg.Reset()
	} else {
		seg = &trace.Segment{Insts: make([]trace.SegInst, 0, trace.MaxInsts)}
	}
	seg.StartPC = startPC
	seg.FillID = f.nextID
	f.nextID++
	return seg
}

// RecycleSegment hands back segment storage (an evicted trace line) for
// reuse. The caller must guarantee nothing still reads the segment: the
// pipeline only recycles an evicted line when the fetch latch is not
// holding instructions decoded from it.
func (f *FillUnit) RecycleSegment(seg *trace.Segment) {
	if seg != nil {
		f.segFree = append(f.segFree, seg)
	}
}

// abandon drops the segment under construction (pipeline flush).
func (f *FillUnit) abandon() {
	if f.cur != nil {
		f.RecycleSegment(f.cur)
		f.cur = nil
	}
	f.block = f.block[:0]
}

// Abandon exposes abandon to the pipeline (called on recovery from
// mispredicted promoted branches whose lines were invalidated, and on
// serializing flushes).
func (f *FillUnit) Abandon() { f.abandon() }

// finalize closes the segment under construction: dependency marking,
// optimization passes, then entry into the fill pipeline.
func (f *FillUnit) finalize(cycle uint64) {
	if f.cur == nil || len(f.cur.Insts) == 0 {
		if f.cur != nil {
			f.RecycleSegment(f.cur)
		}
		f.cur = nil
		return
	}
	seg := f.cur
	f.cur = nil

	// Block count = last instruction's block id + 1 (a final branch does
	// not open a trailing block).
	seg.Blocks = seg.Insts[len(seg.Insts)-1].Block + 1

	markDependencies(seg)
	f.opts.Run(seg, cycle)

	// Decanting classification: stamp the segment so the trace cache can
	// attribute this generation's reuse to its mix × loop class.
	seg.Mix, seg.LoopBack = trace.ClassifySegment(seg)

	f.Stats.SegmentsBuilt++
	f.Stats.SegLen[len(seg.Insts)]++
	f.Stats.SegClass[trace.ReuseClass(seg.Mix, seg.LoopBack)]++
	if r := f.cfg.Recorder; r != nil {
		r.Emit(cycle, obs.KSegFinal, uint64(seg.StartPC),
			uint64(len(seg.Insts)), uint64(seg.CondBranches))
	}
	f.pipe = append(f.pipe, pendingSeg{seg: seg, ready: cycle + uint64(f.cfg.FillLatency)})
}

// Drain returns the segments whose fill latency has elapsed by cycle.
// The returned slice is reused by the next Drain/Flush call; callers
// must consume (or copy out) the segments before then.
func (f *FillUnit) Drain(cycle uint64) []*trace.Segment {
	out := f.drainOut[:0]
	for f.pipeHead < len(f.pipe) && f.pipe[f.pipeHead].ready <= cycle {
		out = append(out, f.pipe[f.pipeHead].seg)
		f.pipe[f.pipeHead] = pendingSeg{}
		f.pipeHead++
	}
	if f.pipeHead == len(f.pipe) {
		f.pipe = f.pipe[:0]
		f.pipeHead = 0
	}
	f.drainOut = out
	return out
}

// Flush finalizes any partial segment (end of simulation) and returns
// every queued segment regardless of latency. Like Drain, the returned
// slice is reused by subsequent calls.
func (f *FillUnit) Flush(cycle uint64) []*trace.Segment {
	f.flushBlock(cycle)
	f.finalize(cycle)
	out := f.drainOut[:0]
	for ; f.pipeHead < len(f.pipe); f.pipeHead++ {
		out = append(out, f.pipe[f.pipeHead].seg)
		f.pipe[f.pipeHead] = pendingSeg{}
	}
	f.pipe = f.pipe[:0]
	f.pipeHead = 0
	f.drainOut = out
	return out
}

// PassStats returns a copy of the per-pass counters, in pipeline run
// order (allocates; read it at end of run, not on the fill path).
func (f *FillUnit) PassStats() []PassStats { return f.opts.Stats() }

// PassSpec returns the optimization pipeline's pass names in run order.
func (f *FillUnit) PassSpec() []string { return f.opts.Spec() }

// CheckInvariants validates the segment and panics with context if the
// fill unit produced an inconsistent line. Used in tests.
func CheckInvariants(seg *trace.Segment) {
	if err := seg.Validate(); err != nil {
		panic(fmt.Sprintf("fill unit invariant violation: %v (%v)", err, seg))
	}
}
