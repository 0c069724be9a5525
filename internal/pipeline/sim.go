package pipeline

import (
	"fmt"
	"math"

	"tcsim/internal/asm"
	"tcsim/internal/bpred"
	"tcsim/internal/cache"
	"tcsim/internal/core"
	"tcsim/internal/emu"
	"tcsim/internal/exec"
	"tcsim/internal/isa"
	"tcsim/internal/obs"
	"tcsim/internal/rename"
	"tcsim/internal/replace"
	"tcsim/internal/trace"
)

// Simulator is one configured machine bound to one program; Reset
// binds it to the next.
//
// The per-cycle path is allocation-free in steady state: uops come from
// a deferred-reclamation pool, the fetch latch and issue scratch are
// reused across cycles, checkpoint snapshots are recycled, and the
// in-flight producer table is a direct-indexed array rather than a map.
type Simulator struct {
	cfg  Config
	prog *asm.Program

	oracle            emu.Source
	text              []isa.Inst
	textBase, textEnd uint32

	pred *bpred.Predictor
	hier *cache.Hierarchy
	tc   *trace.Cache
	fill *core.FillUnit
	eng  *exec.Engine
	pool *rename.CheckpointPool

	// rat is the predicted path's register alias table; fork is the
	// scratch copy a fetch group's inactive suffix renames on, so the
	// inactive blocks leave the predicted path's mappings undisturbed.
	rat, fork rename.RAT

	inflight inflightTable
	uops     exec.Pool

	cycle           uint64
	nextSeq         uint64
	fetchPC         uint32
	fetchOnPath     bool
	oracleIdx       uint64
	fetchStallUntil uint64
	serializeWait   bool
	fetchBuf        *fetchGroup
	fg              fetchGroup     // reused latch storage fetchBuf points into
	latchLine       *trace.Segment // line that left the trace cache while fetchBuf read it
	done            bool
	lastRetire      uint64

	// Sampled-timing state (internal/pipeline/sampled.go). fetchHold
	// stalls the fetch stage while a measured window drains before a
	// functional gap; the rest accumulates into Stats.Sampled.
	fetchHold     bool
	sampWindowCPI []float64
	sampWarmup    uint64
	sampDetailed  uint64
	sampFFwd      uint64
	sampSkipped   uint64
	sampSeeks     uint64

	slotScratch      []int            // tryIssue FU-slot list
	activatedScratch []*exec.UOp      // recover's activated-suffix list
	droppedScratch   []*trace.Segment // invalidated trace lines to recycle

	// rec is the timeline recorder (nil = tracing off). Every emission
	// site nil-checks it, so the disabled cost is a pointer compare and
	// the cycle loop's zero-allocation invariant is untouched.
	rec *obs.Recorder

	stats Stats
}

// New builds a simulator for the program under the given configuration.
func New(cfg Config, prog *asm.Program) (*Simulator, error) {
	s := new(Simulator)
	if err := s.Reset(cfg, prog); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-initializes s in place to simulate prog under cfg. New is
// Reset applied to an empty Simulator, and a run after Reset is
// bit-for-bit a run of the simulator New builds. A component whose
// configuration (sizes, latencies, policy) equals the last run's is
// cleared in place through its own Reset, and any other is rebuilt; the
// uops, checkpoint snapshots and trace lines the last run left behind
// return to their pools. A simulator whose Step panicked may hold state
// no Reset repairs: build a new one. After an error, s must not be
// used.
func (s *Simulator) Reset(cfg Config, prog *asm.Program) error {
	cfg = cfg.normalize()
	if err := cfg.Sampling.Validate(); err != nil {
		return err
	}
	for _, g := range [][2]int{{cfg.Exec.Clusters, cfg.Exec.FUsPerCluster}, {cfg.Fill.Clusters, cfg.Fill.FUsPerCluster}} {
		if err := ValidateGeometry(g[0], g[1]); err != nil {
			return err
		}
	}
	if err := cfg.Exec.Validate(); err != nil {
		return err
	}
	// The pipeline always runs the fill unit in fetch-aligned mode:
	// segments start at addresses the fetch engine actually missed on,
	// otherwise segment starts phase-lock to retirement counts and the
	// trace cache can build lines fetch never probes.
	cfg.Fill.FillOnMiss = true
	// One recorder serves every layer: the fill unit emits its segment
	// and pass events into the same ring the fetch/issue/retire stages
	// write, so the exported timeline interleaves them by cycle.
	cfg.Fill.Recorder = cfg.Recorder

	s.release()
	var err error
	hier, tc, pred, pool := s.hier, s.tc, s.pred, s.pool
	if hier == nil || cfg.Cache != s.cfg.Cache {
		if hier, err = cache.NewHierarchy(cfg.Cache); err != nil {
			return err
		}
	} else {
		hier.Reset()
	}
	if tc == nil || cfg.TCache != s.cfg.TCache {
		if tc, err = trace.NewCache(cfg.TCache); err != nil {
			return err
		}
	} // else release has emptied it
	if pred == nil || cfg.Pred != s.cfg.Pred {
		pred = bpred.New(cfg.Pred)
	} else {
		pred.Reset()
	}
	fill := s.fill
	if fill == nil {
		fill = new(core.FillUnit)
	}
	if err := fill.Reset(cfg.Fill, pred.Bias); err != nil {
		return err
	}
	for i, seg := range s.droppedScratch {
		fill.RecycleSegment(seg)
		s.droppedScratch[i] = nil
	}
	eng := s.eng
	if eng == nil {
		eng = new(exec.Engine)
	}
	eng.Reset(cfg.Exec, hier)
	if pool == nil || cfg.Checkpoints != s.cfg.Checkpoints {
		pool = rename.NewCheckpointPool(cfg.Checkpoints)
	} else {
		pool.Reset()
	}
	oracle := cfg.Oracle
	if oracle == nil {
		oracle = emu.NewOracleSized(emu.New(prog), MaxOracleLead(cfg))
	}

	fg := s.fg
	if fg.uops == nil {
		fg.uops = make([]*exec.UOp, 0, trace.MaxInsts)
		fg.segInsts = make([]*trace.SegInst, 0, trace.MaxInsts)
	}
	fg.reset()
	inflight := s.inflight
	if inflight.ents == nil {
		inflight = newInflightTable()
	} else {
		clear(inflight.ents)
	}
	*s = Simulator{
		cfg:              cfg,
		prog:             prog,
		oracle:           oracle,
		text:             prog.Insts,
		textBase:         prog.TextBase,
		textEnd:          prog.TextEnd(),
		pred:             pred,
		hier:             hier,
		tc:               tc,
		fill:             fill,
		eng:              eng,
		pool:             pool,
		inflight:         inflight,
		uops:             s.uops,
		fetchPC:          prog.Entry,
		fetchOnPath:      true,
		fg:               fg,
		sampWindowCPI:    s.sampWindowCPI[:0],
		slotScratch:      reuse(s.slotScratch),
		activatedScratch: reuse(s.activatedScratch),
		droppedScratch:   s.droppedScratch[:0],
		rec:              cfg.Recorder,
	}
	s.rat.Reset()
	if err := s.bindOraclePolicies(); err != nil {
		return err
	}
	if cfg.Sampling.Enabled() && cfg.Sampling.Seek {
		if _, ok := s.oracle.(emu.Seeker); !ok {
			return fmt.Errorf("pipeline: seek-mode sampling needs a seekable oracle (a captured trace or checkpoint log); live emulation cannot seek")
		}
	}
	return nil
}

// reuse empties a scratch slice, allocating its first backing array.
func reuse[T any](s []T) []T {
	if s == nil {
		return make([]T, 0, trace.MaxInsts)
	}
	return s[:0]
}

// release returns what the last run left in flight to the pools: the
// window's uops and their checkpoint snapshots, the fetch latch, the
// uops waiting out their reclamation watermark, and the trace cache's
// lines (collected in droppedScratch; Reset recycles them into the fill
// unit once it has re-initialized it).
func (s *Simulator) release() {
	if s.eng == nil {
		return
	}
	for i, n := 0, s.eng.Len(); i < n; i++ {
		u := s.eng.At(i)
		if u.HasCheckpoint {
			s.pool.PutBack(u.CkRAT)
		}
		s.uops.Put(u)
	}
	s.dropFetchBuf()
	s.uops.Reclaim(math.MaxUint64) // nothing references a parked uop any more
	s.droppedScratch = s.tc.Reset(s.droppedScratch[:0])
}

// bindOraclePolicies hands oracle replacement policies (belady) their
// future-reference index and the fetch cursor. Construction-time only:
// the adapters are allocated here, the per-victim queries they serve
// are allocation-free.
func (s *Simulator) bindOraclePolicies() error {
	cursor := func() uint64 { return s.oracleIdx }
	if sink, ok := s.tc.Policy().(replace.OracleSink); ok {
		if s.cfg.Future == nil {
			return fmt.Errorf("pipeline: trace-cache policy %q needs future knowledge: supply Config.Future (run over a captured workload trace)",
				s.tc.Policy().Name())
		}
		sink.BindOracle(pcFuture{s.cfg.Future}, cursor)
	}
	if sink, ok := s.hier.L1I.Policy().(replace.OracleSink); ok {
		if s.cfg.Future == nil {
			return fmt.Errorf("pipeline: L1I policy %q needs future knowledge: supply Config.Future (run over a captured workload trace)",
				s.hier.L1I.Policy().Name())
		}
		sink.BindOracle(blockFuture{s.cfg.Future, s.hier.L1I.LineShift()}, cursor)
	}
	return nil
}

// Run simulates until the program halts (or the retirement bound is
// reached) and returns the statistics.
func (s *Simulator) Run() (Stats, error) {
	if s.cfg.Sampling.Enabled() {
		return s.runSampled()
	}
	if err := s.runDetailedUntil(^uint64(0)); err != nil {
		return s.stats, err
	}
	if err := s.oracle.Err(); err != nil {
		return s.stats, err
	}
	s.finalizeStats()
	return s.stats, nil
}

// runDetailedUntil runs the cycle-accurate loop until the program halts
// or the retired-instruction count reaches target. Exact runs pass
// ^uint64(0), which Retired can never reach, so the loop is exactly the
// historical Run body; sampled runs pass window boundaries. Retirement
// is up to RetireWidth per cycle, so the stop position may overshoot
// target by at most RetireWidth-1 instructions.
func (s *Simulator) runDetailedUntil(target uint64) error {
	cancelled := s.cfg.Cancelled
	for !s.done && s.stats.Retired < target {
		c := s.cycle
		if c >= s.cfg.MaxCycles {
			return fmt.Errorf("pipeline: exceeded %d cycles without halting", s.cfg.MaxCycles)
		}
		if c-s.lastRetire > 500000 {
			return fmt.Errorf("pipeline: no retirement for 500000 cycles at cycle %d (deadlock)", c)
		}
		if cancelled != nil && c&4095 == 0 && cancelled() {
			return ErrCanceled
		}
		s.Step()
	}
	return nil
}

// Step advances the machine exactly one cycle. Run loops over Step;
// tests and benchmarks call it directly to measure the steady-state
// cycle loop (it is the region the zero-allocation invariant covers).
func (s *Simulator) Step() {
	c := s.cycle
	s.resolveBranches(c)
	s.retire(c)
	if s.done {
		return
	}
	s.eng.Cycle(c)
	s.tryIssue(c)
	s.fetchCycle(c)
	if s.cfg.UseTraceCache {
		s.drainFill(c)
	}
	// Prune hands retired/dead uops to the pool; they become reusable
	// once nothing issued before the watermark can still reference them.
	s.eng.PruneRecycle(&s.uops, s.nextSeq)
	oldestLive := s.nextSeq + 1
	if s.eng.Len() > 0 {
		oldestLive = s.eng.At(0).Seq
	}
	s.uops.Reclaim(oldestLive)
	s.cycle++
}

// drainFill moves completed segments from the fill pipe into the trace
// cache, recycling evicted lines' storage (see recycleLine: the latch
// keeps SegInst pointers into its segment until issue).
func (s *Simulator) drainFill(c uint64) {
	for _, seg := range s.fill.Drain(c) {
		ev := s.tc.Insert(seg)
		if ev == nil {
			continue
		}
		// A policy bypass hands the incoming segment straight back (it
		// was never stored); a real eviction retires a line generation,
		// worth a decanting event on the timeline.
		if s.rec != nil && ev != seg {
			s.rec.Emit(c, obs.KReuse,
				uint64(trace.ReuseClass(ev.Mix, ev.LoopBack)),
				uint64(s.tc.LastRetiredHits), uint64(ev.StartPC))
		}
		s.recycleLine(ev)
	}
}

// recycleLine hands the storage of a line that left the trace cache back
// to the fill unit; while the fetch latch still holds instructions
// decoded from it, the latch recycles it on release instead.
func (s *Simulator) recycleLine(seg *trace.Segment) {
	if s.fetchBuf != nil && s.fetchBuf.seg == seg {
		s.latchLine = seg
		return
	}
	s.fill.RecycleSegment(seg)
}

// invalidateLines drops the trace lines that embed the branch at pc and
// recycles their storage.
func (s *Simulator) invalidateLines(pc uint32) {
	s.droppedScratch = s.tc.InvalidateContaining(pc, s.droppedScratch[:0])
	for i, seg := range s.droppedScratch {
		s.recycleLine(seg)
		s.droppedScratch[i] = nil
	}
}

// Done reports whether the program has halted or hit its retirement
// bound.
func (s *Simulator) Done() bool { return s.done }

// Stats returns the statistics accumulated so far.
func (s *Simulator) Stats() Stats {
	s.finalizeStats()
	return s.stats
}

// Output returns the program's OUT stream (for correctness checks).
func (s *Simulator) Output() []byte { return s.oracle.Output() }

func (s *Simulator) finalizeStats() {
	st := &s.stats
	st.Cycles = s.cycle
	if s.cycle > 0 {
		st.IPC = float64(st.Retired) / float64(s.cycle)
	}
	st.TCLookups = s.tc.Lookups
	st.TCHits = s.tc.HitLines
	st.TCHitRate = s.tc.HitRate()
	st.TCBypasses = s.tc.Bypasses
	st.TCReuse = s.tc.ReuseSnapshot()
	if st.CondBranches > 0 {
		st.MispredictRate = float64(st.Mispredicts) / float64(st.CondBranches)
	}
	st.DL1Hits, st.DL1Misses = s.hier.L1D.Hits, s.hier.L1D.Misses
	st.IL1Hits, st.IL1Misses = s.hier.L1I.Hits, s.hier.L1I.Misses
	st.L2Hits, st.L2Misses = s.hier.L2.Hits, s.hier.L2.Misses
	st.Fill = s.fill.Stats
	st.Passes = s.fill.PassStats()
}

// dropFetchBuf discards the fetch/issue latch (squash redirect). The
// buffered uops were never issued, so nothing can reference them and
// they go straight back to the pool.
func (s *Simulator) dropFetchBuf() {
	if s.fetchBuf == nil {
		return
	}
	for _, u := range s.fetchBuf.uops {
		s.uops.Put(u)
	}
	s.releaseLatch()
}

// releaseLatch empties the fetch/issue latch and recycles the trace line
// it was the last reader of, if that line has left the cache.
func (s *Simulator) releaseLatch() {
	s.fetchBuf = nil
	if s.latchLine != nil {
		s.fill.RecycleSegment(s.latchLine)
		s.latchLine = nil
	}
}

// tryIssue runs the issue stage: rename the buffered fetch group and
// insert it into the window, all-or-nothing on resources.
func (s *Simulator) tryIssue(c uint64) {
	g := s.fetchBuf
	if g == nil || c < g.readyCycle {
		return
	}
	if s.eng.WindowSpace() < len(g.uops) {
		return
	}
	slots := s.slotScratch[:0]
	ckpts := 0
	for _, u := range g.uops {
		if u.NeedsFU() {
			slots = append(slots, u.FU)
		}
		if needsCheckpoint(u) {
			ckpts++
		}
	}
	s.slotScratch = slots // keep any grown backing array for reuse
	if !s.eng.RSSpaceFor(slots) {
		return
	}
	if !s.pool.Allocate(ckpts) {
		return
	}

	rat := &s.rat
	for i, u := range g.uops {
		if i == g.firstInactive {
			s.fork = s.rat
			rat = &s.fork
		}
		s.renameUOp(u, g, i, rat)
		if needsCheckpoint(u) {
			u.HasCheckpoint = true
			u.CkRAT = s.pool.Grab(rat)
		}
		s.eng.Issue(u, c)
	}
	if s.rec != nil {
		s.rec.Emit(c, obs.KIssue, uint64(len(g.uops)), uint64(s.eng.Len()), 0)
	}
	s.releaseLatch()
}

// isAddrOperand reports whether the operand in the given encoding field
// participates in address generation (vs. store data).
func isAddrOperand(op isa.Op, field isa.OperandField) bool {
	switch op {
	case isa.SB, isa.SH, isa.SW:
		return field != isa.FieldRt
	case isa.SWX:
		return field != isa.FieldRd
	}
	return true
}

// renameUOp resolves the uop's operands to in-flight producers (through
// the trace line's explicit dependency info when present, else the RAT)
// and renames its destination. Marked moves execute here: the
// destination's mapping becomes a copy of the source's (paper §4.2).
func (s *Simulator) renameUOp(u *exec.UOp, g *fetchGroup, i int, rat *rename.RAT) {
	si := g.segInsts[i]
	if si != nil {
		u.NSrc = si.NSrc
		for k := 0; k < si.NSrc; k++ {
			u.SrcAddr[k] = isAddrOperand(u.Inst.Op, si.SrcField[k])
			if p := si.SrcProducer[k]; p != trace.NoProducer {
				pu := g.uops[p]
				u.SrcProd[k] = pu
				if pu.MoveBit {
					// Unrewired consumer of a same-group move pays the
					// rename pipelining cycle (paper §4.2).
					u.SrcDelay[k] = 1
				}
			} else {
				s.resolveLiveIn(u, k, si.SrcReg[k], rat)
			}
		}
	} else {
		var regs [3]isa.Reg
		var fields [3]isa.OperandField
		n := u.Inst.SourceOperands(regs[:], fields[:])
		u.NSrc = n
		for k := 0; k < n; k++ {
			u.SrcAddr[k] = isAddrOperand(u.Inst.Op, fields[k])
			s.resolveLiveIn(u, k, regs[k], rat)
		}
	}

	if !u.OnPath && u.IsMem() {
		// Synthetic, non-matching address for wrong-path memory ops.
		u.EA = 0xE0000000 | uint32(u.Seq<<2)
	}
	if !u.OnPath && u.IsBranch {
		// Wrong-path branches resolve "as predicted": no redirect.
		u.ActualTaken = u.PredTaken
		u.ActualNext = u.PredNext
	}

	if u.MoveBit {
		src, _ := u.Orig.MoveSource()
		if d, ok := u.Orig.Dest(); ok {
			rat.Alias(d, src)
		}
		return
	}
	if d, ok := u.Inst.Dest(); ok {
		rat.SetDest(d, u.Seq)
		s.inflight.put(u.Seq, u)
	}
}

// resolveLiveIn binds operand k to the architectural register's current
// producer (nil when the value is already in the register file).
func (s *Simulator) resolveLiveIn(u *exec.UOp, k int, reg isa.Reg, rat *rename.RAT) {
	e := rat.Lookup(reg)
	if e.Ready {
		return
	}
	if pu := s.inflight.get(e.Tag); pu != nil {
		u.SrcProd[k] = pu
	}
}

// resolveBranches walks the unresolved branches oldest-first for those
// whose execution finished this cycle, and triggers recovery on the
// oldest misprediction.
func (s *Simulator) resolveBranches(c uint64) {
	for _, u := range s.eng.Branches() {
		if u.Dead || u.Resolved {
			continue
		}
		if !u.HasResult || u.ResultTime > c {
			continue
		}
		s.eng.MarkResolved(u)
		if !u.OnPath || u.Promoted {
			// Wrong-path branches resolve as predicted; mispromoted
			// branches recover with a retirement flush.
			s.discardInactive(u)
			continue
		}
		if u.ActualNext == u.PredNext {
			s.discardInactive(u)
			continue
		}
		s.recover(u, c)
		return // younger window state has changed; rescan next cycle
	}
}

// discardInactive drops the inactive instructions guarded by a branch
// whose prediction was confirmed.
func (s *Simulator) discardInactive(u *exec.UOp) {
	for _, w := range s.eng.Inactive() {
		if w.Inactive && !w.Dead && w.GuardSeq == u.Seq {
			s.killUOp(w)
			s.stats.InactiveDropped++
		}
	}
}

// killUOp kills one uop and releases its bookkeeping.
func (s *Simulator) killUOp(w *exec.UOp) {
	s.eng.Kill(w)
	s.inflight.del(w.Seq)
	if w.HasCheckpoint {
		s.pool.Release(1)
		s.pool.PutBack(w.CkRAT)
		w.CkRAT = nil
		w.HasCheckpoint = false
	}
}

// recover repairs a mispredicted on-path branch: activate the trace
// line's inactive instructions that lie on the actual path (inactive
// issue's payoff), squash everything younger, restore the checkpoint,
// and redirect fetch.
func (s *Simulator) recover(u *exec.UOp, c uint64) {
	if u.PredValid || u.Inst.Op.IsCondBranch() {
		s.stats.Mispredicts++
	}
	if u.Inst.Op.IsIndirect() {
		s.stats.IndirectMispred++
	}

	// Activate the oracle-matching prefix of the guarded suffix.
	lastKept := u
	activated := s.activatedScratch[:0]
	for _, w := range s.eng.Inactive() {
		if w.Dead || !w.Inactive || w.GuardSeq != u.Seq {
			continue
		}
		if w.OnPath && w.Seq == lastKept.Seq+1 && w.OracleIdx == lastKept.OracleIdx+1 {
			s.eng.MarkActivated(w)
			activated = append(activated, w)
			lastKept = w
			s.stats.InactiveKept++
		}
	}

	// Squash everything younger than the recovery point.
	s.squashAfter(lastKept.Seq)

	// Checkpoint repair.
	s.rat.RestoreFrom(u.CkRAT)
	s.pred.RAS.Restore(u.CkRAS)
	s.pred.SetHistory(u.CkHist)
	if u.Inst.Op.IsCondBranch() {
		s.pred.PushOutcome(u.ActualTaken)
	}
	// Replay the activated instructions' rename effects on top of the
	// restored table (their tags are unchanged).
	for _, w := range activated {
		if w.MoveBit {
			src, _ := w.Orig.MoveSource()
			if d, ok := w.Orig.Dest(); ok {
				s.rat.Alias(d, src)
			}
		} else if d, ok := w.Inst.Dest(); ok {
			s.rat.SetDest(d, w.Seq)
		}
		switch {
		case w.Inst.Op.IsCall():
			s.pred.RAS.Push(w.PC + isa.InstBytes)
		case w.Orig.IsReturn():
			s.pred.RAS.Pop()
		}
		if w.Inst.Op.IsCondBranch() && !w.Promoted {
			s.pred.PushOutcome(w.ActualTaken)
		}
	}
	s.activatedScratch = activated[:0]

	// Redirect fetch to the actual path.
	s.fetchPC = lastKept.ActualNext
	s.oracleIdx = lastKept.OracleIdx + 1
	s.fetchOnPath = true
	s.dropFetchBuf()
	s.fetchStallUntil = c + 1
	s.rescanSerialize()
}

// squashAfter kills every live uop younger than seq. The window is in
// Seq order, so they form its suffix, killed youngest first.
func (s *Simulator) squashAfter(seq uint64) {
	for i := s.eng.Len() - 1; i >= 0; i-- {
		w := s.eng.At(i)
		if w.Seq <= seq {
			return
		}
		if !w.Dead && !w.Retired {
			s.killUOp(w)
		}
	}
}

// rescanSerialize recomputes the serialize-wait flag after a squash may
// have killed the blocking instruction.
func (s *Simulator) rescanSerialize() {
	s.serializeWait = false
	for i, n := 0, s.eng.Len(); i < n; i++ {
		w := s.eng.At(i)
		if !w.Dead && !w.Retired && w.Inst.Op.IsSerializing() {
			s.serializeWait = true
			return
		}
	}
	if s.fetchBuf != nil {
		for _, w := range s.fetchBuf.uops {
			if w.Inst.Op.IsSerializing() {
				s.serializeWait = true
				return
			}
		}
	}
}

// retireFlush implements recovery at the retirement boundary (used for
// mispromoted branches, which carry no checkpoint): every younger
// instruction is squashed and the machine restarts from architectural
// state.
func (s *Simulator) retireFlush(u *exec.UOp, c uint64) {
	s.squashAfter(u.Seq)
	s.rat.Reset() // no in-flight producers remain
	s.fetchPC = u.ActualNext
	s.oracleIdx = u.OracleIdx + 1
	s.fetchOnPath = true
	s.dropFetchBuf()
	s.fetchStallUntil = c + 1
	if u.Inst.Op.IsCondBranch() {
		s.pred.PushOutcome(u.ActualTaken)
	}
	s.rescanSerialize()
}

// retire commits completed instructions in program order, feeding the
// fill unit and the trainers. The wrapper exists for the timeline: it
// measures how many instructions doRetire committed this cycle without
// perturbing the (multi-return) retirement loop itself.
func (s *Simulator) retire(c uint64) {
	if s.rec == nil {
		s.doRetire(c)
		return
	}
	base := s.stats.Retired
	s.doRetire(c)
	if n := s.stats.Retired - base; n > 0 {
		s.rec.Emit(c, obs.KRetire, n, uint64(s.eng.Len()), 0)
	}
}

func (s *Simulator) doRetire(c uint64) {
	n := 0
	for i, wn := 0, s.eng.Len(); i < wn; i++ {
		u := s.eng.At(i)
		if u.Dead || u.Retired {
			continue
		}
		if u.Inactive || !u.OnPath {
			break
		}
		if u.IsBranch && !u.Resolved {
			break
		}
		if !u.CompletedBy(c) {
			break
		}

		s.eng.MarkRetired(u)
		s.lastRetire = c
		s.inflight.del(u.Seq)
		if u.HasCheckpoint {
			s.pool.Release(1)
			s.pool.PutBack(u.CkRAT)
			u.CkRAT = nil
			u.HasCheckpoint = false
		}
		s.stats.Retired++

		if u.IsStore() {
			s.eng.RetireStore(u)
		}

		// Statistics.
		if u.MoveBit {
			s.stats.RetiredMoves++
		}
		if u.ReassocBit {
			s.stats.RetiredReassoc++
		}
		if u.ScaleAmt != 0 {
			s.stats.RetiredScaled++
		}
		if u.DeadBit {
			s.stats.RetiredDead++
		}
		if u.MoveBit || u.ReassocBit || u.ScaleAmt != 0 || u.DeadBit {
			s.stats.RetiredAnyOpt++
		}
		if u.NeedsFU() && u.HadOperands {
			s.stats.BypassEligible++
			if u.BypassDelayed {
				s.stats.BypassDelayed++
			}
		}

		mispromoted := false
		op := u.Inst.Op
		if op.IsCondBranch() {
			s.stats.CondBranches++
			if u.Promoted {
				s.stats.PromotedRetired++
				if u.ActualNext != u.PredNext {
					s.stats.PromotedMispred++
					mispromoted = true
					s.pred.Bias.Demote(u.PC)
					s.invalidateLines(u.PC)
				}
			}
			_, wasPromoted := s.pred.Bias.Promoted(u.PC)
			nowPromoted := s.pred.Bias.Observe(u.PC, u.ActualTaken)
			if nowPromoted && !wasPromoted {
				// The branch just crossed the promotion threshold: drop
				// the trace lines that embed it un-promoted so the fill
				// unit rebuilds them with the static prediction (and the
				// extra packing headroom promotion buys).
				s.invalidateLines(u.PC)
			}
			if u.PredValid {
				s.pred.Update(u.PredTok, u.ActualTaken)
			}
		}
		if op.IsIndirect() {
			s.stats.IndirectRetired++
			if !u.Orig.IsReturn() {
				s.pred.ITB.Update(u.PC, u.ActualNext)
			}
		}

		// Feed the fill unit with the architectural record.
		rec, ok := s.oracle.At(u.OracleIdx)
		if !ok || rec.PC != u.PC {
			panic(fmt.Sprintf("pipeline: oracle desync at retirement: uop pc %#x seq %d oracle idx %d (ok=%v)",
				u.PC, u.Seq, u.OracleIdx, ok))
		}
		s.fill.Collect(rec, c)
		s.oracle.Release(u.OracleIdx + 1)

		if op == isa.HALT {
			s.done = true
			return
		}
		if op.IsSerializing() {
			s.serializeWait = false
		}
		if s.cfg.MaxInsts > 0 && s.stats.Retired >= s.cfg.MaxInsts {
			s.done = true
			return
		}
		if mispromoted {
			s.retireFlush(u, c)
			return
		}

		n++
		if n >= RetireWidth {
			return
		}
	}
}
