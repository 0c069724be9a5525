package pipeline

import (
	"fmt"
	"math"

	"tcsim/internal/emu"
	"tcsim/internal/isa"
	"tcsim/internal/obs"
	"tcsim/internal/sample"
	"tcsim/internal/trace"
)

// SamplingConfig selects SMARTS-style sampled timing: the run is cut
// into periods of Period retired instructions; each period starts with
// a detailed warm-up of Warmup instructions (timed but discarded — it
// re-warms the window, trace cache contents and in-flight predictor
// state after the functional gap), then a measured detailed window of
// WindowLen instructions, then the remainder of the period advances
// functionally — caches and predictors warmed, no cycle accounting. Per
// window IPC aggregates into a t-distribution 95% confidence interval
// (internal/sample).
//
// Seek selects checkpoint-seek mode for the gap: instead of
// functionally warming every skipped instruction, the oracle seeks
// (restoring a capture-time checkpoint when one is closer than the
// current position), and the gap's instructions are never observed.
// Faster, but cache/predictor state then carries nothing from the gap —
// only the warm-up window rebuilds it — so it needs a Seeker source:
// a captured trace (Replay) or a checkpoint log (CkptSource).
//
// The JSON tags are the plan's field names in the canonical cache key
// (internal/machine); omitempty keeps the plan out of an exact run's key.
type SamplingConfig struct {
	Period    uint64 `json:"sample_period,omitempty"` // retired instructions per sampling period (0 = exact simulation)
	WindowLen uint64 `json:"sample_window,omitempty"` // measured detailed instructions per period
	Warmup    uint64 `json:"sample_warmup,omitempty"` // discarded detailed instructions before each window
	Seek      bool   `json:"sample_seek,omitempty"`   // skip the gap via checkpoint seek instead of functional warming
}

// Enabled reports whether sampling is requested.
func (sc SamplingConfig) Enabled() bool { return sc.Period > 0 }

// Validate checks the configuration's internal consistency.
func (sc SamplingConfig) Validate() error {
	if !sc.Enabled() {
		return nil
	}
	if sc.WindowLen == 0 {
		return fmt.Errorf("pipeline: sampling window length must be non-zero")
	}
	if sc.Period <= sc.Warmup+sc.WindowLen {
		return fmt.Errorf("pipeline: sampling period %d must exceed warmup %d + window %d (otherwise the run is all detailed)",
			sc.Period, sc.Warmup, sc.WindowLen)
	}
	return nil
}

// NonSamplingRelErr is the relative error floor folded into the
// reported confidence interval. The t-interval only sees sampling
// variance; two systematic effects are invisible to it: the residual
// warm-up bias of restarting detailed timing from a functionally
// warmed core, and the cold-start transient that whole-run IPC
// includes but steady-state windows exclude (largest on
// trace-cache-heavy workloads at short budgets, where the ramp is a
// meaningful fraction of the run). Both were measured ≤ ~3.1% across
// the bundled workloads at the default plan and a 2M-instruction
// budget — in line with the non-sampling bias SMARTS reports — and on
// near-constant workloads the sampling variance alone shrinks the
// interval far below that. The floor keeps the interval honest about
// total error, not just sampling error.
const NonSamplingRelErr = 0.035

// DefaultSamplingFor returns the standard sampling plan for a budget:
// 10k-instruction windows with 20k warm-up (long enough to rebuild the
// trace-cache working set the fill unit could not grow during the
// gap), at a period targeting ~50 windows across the run (never below
// 50k).
func DefaultSamplingFor(budget uint64) SamplingConfig {
	sc := SamplingConfig{WindowLen: 10_000, Warmup: 20_000}
	p := budget / 50
	if p < 50_000 {
		p = 50_000
	}
	sc.Period = p
	return sc
}

// SampledStats is the sampled-timing estimate attached to Stats when
// sampling ran. No wall-clock fields: sampled results must be
// bit-for-bit reproducible across replay/live and direct/gateway runs.
type SampledStats struct {
	// IPC is the sampled estimate (mean of window IPCs); Stats.IPC is
	// set to it too, since retired/cycles is meaningless when most
	// instructions never passed through the cycle-accurate core.
	IPC    float64
	CILow  float64 // lower 95% confidence bound
	CIHigh float64 // upper 95% confidence bound

	Windows   int       // measured windows aggregated
	WindowIPC []float64 // per-window IPC, in run order

	InstsWarmup   uint64 // detailed but discarded (warm-up)
	InstsDetailed uint64 // detailed and measured
	InstsFFwd     uint64 // functionally warmed (warm mode)
	InstsSkipped  uint64 // seeked past without observation (seek mode)

	Seeks              uint64 // oracle seeks performed (seek mode)
	CheckpointRestores uint64 // seeks that restored a capture-time checkpoint
}

// runSampled is Run's sampled-mode body: alternate detailed windows and
// functional gaps until the budget (or HALT), then aggregate.
func (s *Simulator) runSampled() (Stats, error) {
	sc := s.cfg.Sampling
	var start uint64 // current period's first retired-instruction position
	window := 0
	for !s.done {
		if s.rec != nil {
			s.rec.Emit(s.cycle, obs.KWindow, uint64(window), 0, s.stats.Retired)
		}
		w0 := s.stats.Retired
		if err := s.runDetailedUntil(start + sc.Warmup); err != nil {
			return s.stats, err
		}
		s.sampWarmup += s.stats.Retired - w0
		if s.done {
			break
		}

		c0, r0 := s.cycle, s.stats.Retired
		if s.rec != nil {
			s.rec.Emit(s.cycle, obs.KWindow, uint64(window), 1, r0)
		}
		err := s.runDetailedUntil(start + sc.Warmup + sc.WindowLen)
		if err != nil {
			return s.stats, err
		}
		dr, dc := s.stats.Retired-r0, s.cycle-c0
		s.sampDetailed += dr
		// A tail window cut short by HALT or the budget still counts when
		// at least half its length retired; shorter fragments are noise.
		// Windows aggregate in CPI space: with equal-instruction windows
		// the mean window CPI is the unbiased estimator of aggregate
		// cycles/instruction, where the mean window IPC would
		// systematically overestimate whenever IPC varies across windows
		// (mean of ratios vs ratio of sums).
		if dc > 0 && dr >= (sc.WindowLen+1)/2 {
			s.sampWindowCPI = append(s.sampWindowCPI, float64(dc)/float64(dr))
		}
		if s.rec != nil {
			s.rec.Emit(s.cycle, obs.KWindow, uint64(window), 2, s.stats.Retired)
		}
		window++
		if s.done {
			break
		}

		// Let the in-flight window retire completely (fetch held) so the
		// functional gap starts from a committed architectural point.
		if err := s.drainForGap(); err != nil {
			return s.stats, err
		}
		if s.done {
			break
		}
		next := start + sc.Period
		if s.cfg.MaxInsts > 0 && next > s.cfg.MaxInsts {
			next = s.cfg.MaxInsts
		}
		switch {
		case next <= s.stats.Retired:
			// The drain already carried us past the period boundary.
			s.resumeFetchAt(s.stats.Retired)
		case sc.Seek:
			s.seekTo(next)
		default:
			if err := s.FastForward(next); err != nil {
				return s.stats, err
			}
		}
		start += sc.Period
		if s.cfg.MaxInsts > 0 && s.stats.Retired >= s.cfg.MaxInsts {
			s.done = true
		}
	}
	if err := s.oracle.Err(); err != nil {
		return s.stats, err
	}
	s.finalizeStats()
	s.finalizeSampled()
	return s.stats, nil
}

func (s *Simulator) finalizeSampled() {
	est := sample.Estimate95(s.sampWindowCPI)
	ss := &SampledStats{
		Windows:       est.N,
		InstsWarmup:   s.sampWarmup,
		InstsDetailed: s.sampDetailed,
		InstsFFwd:     s.sampFFwd,
		InstsSkipped:  s.sampSkipped,
		Seeks:         s.sampSeeks,
	}
	if est.N > 0 {
		ss.WindowIPC = make([]float64, len(s.sampWindowCPI))
		maxIPC := 0.0
		for i, cpi := range s.sampWindowCPI {
			ss.WindowIPC[i] = 1 / cpi
			maxIPC = math.Max(maxIPC, 1/cpi)
		}
		// Invert the CPI estimate into IPC space (bound order flips).
		ss.IPC = 1 / est.Mean
		ss.CILow, ss.CIHigh = 1/est.High, 1/est.Low
		if est.Low <= 0 {
			// Degenerate tiny-sample interval crossing zero CPI: clamp
			// the upper IPC bound to the fastest window observed instead
			// of publishing an infinity JSON cannot carry.
			ss.CIHigh = maxIPC
		}
		// The t-interval covers sampling variance only. Warm-up
		// reconstruction bias and the excluded cold-start transient are
		// systematic errors it cannot see — on near-constant workloads
		// the sampling variance is so small that even a 0.1% bias would
		// fall outside. Widen to the measured non-sampling error floor
		// so the interval stays honest about total error.
		ss.CILow = math.Min(ss.CILow, ss.IPC*(1-NonSamplingRelErr))
		ss.CIHigh = math.Max(ss.CIHigh, ss.IPC*(1+NonSamplingRelErr))
	}
	if cs, ok := s.oracle.(interface{ CheckpointRestores() uint64 }); ok {
		ss.CheckpointRestores = cs.CheckpointRestores()
	}
	if est.N == 0 {
		// No window completed (run shorter than one warm-up+window): the
		// whole run was detailed, so the exact IPC is the estimate.
		ss.IPC = s.stats.IPC
		ss.CILow, ss.CIHigh = s.stats.IPC, s.stats.IPC
	}
	s.stats.Sampled = ss
	s.stats.IPC = ss.IPC
}

// drainForGap steps the machine with fetch held until no live uop
// remains, so fast-forward takes over at a fully committed boundary.
// Drained cycles are excluded from the measured window (it already
// closed) but do advance the clock.
func (s *Simulator) drainForGap() error {
	s.fetchHold = true
	limit := s.cycle + 500_000
	for !s.done && s.eng.Live() > 0 {
		if s.cycle >= limit {
			s.fetchHold = false
			return fmt.Errorf("pipeline: sampling drain did not empty the window within 500000 cycles")
		}
		s.Step()
	}
	s.dropFetchBuf()
	s.fetchHold = false
	return nil
}

// resumeFetchAt points the front end at the correct-path record seq
// after a functional gap: the next fetch reads the oracle's PC there,
// exactly like a retirement-boundary flush restart. The RAT is not
// reset — everything in flight retired during the drain, so its stale
// mappings resolve as architecturally ready.
func (s *Simulator) resumeFetchAt(seq uint64) {
	rec, ok := s.oracle.At(seq)
	if !ok {
		s.done = true
		return
	}
	s.oracleIdx = seq
	s.fetchPC = rec.PC
	s.fetchOnPath = true
	s.serializeWait = false
	s.fetchStallUntil = s.cycle + 1
}

// seekTo jumps the oracle to target without observing the gap. New
// validated that the oracle implements emu.Seeker.
func (s *Simulator) seekTo(target uint64) {
	skipped := target - s.stats.Retired
	s.oracle.(emu.Seeker).Seek(target)
	s.stats.Retired = target
	s.sampSkipped += skipped
	s.sampSeeks++
	if s.rec != nil {
		s.rec.Emit(s.cycle, obs.KSeek, target, skipped, 0)
	}
	if s.cfg.MaxInsts > 0 && target >= s.cfg.MaxInsts {
		s.done = true
		return
	}
	s.resumeFetchAt(target)
}

// FastForward advances the simulator functionally from its current
// retired position to target: every record warms the caches (one L1I
// probe per new line, L1D/L2 for memory ops) and trains the branch
// predictors with a fetch-group heuristic matching buildICGroup's
// slotting, but no cycle is modeled and no uop is built. This is the
// sampled run's hot path: it must stay allocation-free in steady state
// (guarded by TestFastForwardStaysAllocationFree) and runs ~20-60x the
// detailed-timing rate. Exported for the benchmark guards; sampled runs
// call it between windows.
func (s *Simulator) FastForward(target uint64) error {
	start := s.stats.Retired
	seq := start
	lineMask := ^uint32(s.hier.L1I.LineBytes() - 1)
	lastLine := ^uint32(0)
	groupLen, cond := 0, 0
	cancelled := s.cfg.Cancelled
	for seq < target {
		rec, ok := s.oracle.At(seq)
		if !ok {
			s.done = true
			break
		}
		if line := rec.PC & lineMask; line != lastLine {
			s.hier.WarmInst(rec.PC)
			lastLine = line
		}
		if rec.Load || rec.Store {
			s.hier.WarmData(rec.EA, rec.Store)
		}
		groupLen++
		op := rec.Inst.Op
		if op.IsControl() {
			newGroup := true
			switch {
			case op.IsCondBranch():
				// Train the PHT through the same slot the fetch stage
				// would have peeked, and keep the bias/promotion table
				// moving so the next detailed window sees current state.
				_, tok := s.pred.Peek(cond, rec.PC)
				cond++
				s.pred.Update(tok, rec.Taken)
				s.pred.PushOutcome(rec.Taken)
				_, was := s.pred.Bias.Promoted(rec.PC)
				if s.pred.Bias.Observe(rec.PC, rec.Taken) && !was {
					// Crossing the promotion threshold invalidates lines
					// that embed the branch un-promoted, as at retirement.
					s.invalidateLines(rec.PC)
				}
				newGroup = rec.Taken || cond >= trace.MaxCondBranch
			case op.IsUncondJump():
				if op == isa.JAL {
					s.pred.RAS.Push(rec.PC + isa.InstBytes)
				}
			case op.IsIndirect():
				if rec.Inst.IsReturn() {
					s.pred.RAS.Pop()
				} else {
					s.pred.ITB.Update(rec.PC, rec.NextPC)
					if op == isa.JALR {
						s.pred.RAS.Push(rec.PC + isa.InstBytes)
					}
				}
			}
			if newGroup {
				groupLen, cond = 0, 0
			}
		} else if op.IsSerializing() {
			groupLen, cond = 0, 0
		}
		if groupLen >= FetchWidth {
			groupLen, cond = 0, 0
		}
		seq++
		if seq&8191 == 0 {
			s.oracle.Release(seq)
			if cancelled != nil && cancelled() {
				s.sampFFwd += seq - start
				s.stats.Retired = seq
				return ErrCanceled
			}
		}
	}
	s.oracle.Release(seq)
	s.sampFFwd += seq - start
	s.stats.Retired = seq
	if s.rec != nil {
		s.rec.Emit(s.cycle, obs.KFFwd, seq-start, seq, 0)
	}
	if s.cfg.MaxInsts > 0 && seq >= s.cfg.MaxInsts {
		s.done = true
	}
	if !s.done {
		s.resumeFetchAt(seq)
	}
	return nil
}
