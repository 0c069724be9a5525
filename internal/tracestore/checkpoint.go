package tracestore

import (
	"fmt"
	"sort"

	"tcsim/internal/asm"
	"tcsim/internal/emu"
	"tcsim/internal/isa"
)

// FullCaptureLimit is the largest budget for which sampled runs still
// capture (or load) the full columnar trace. Above it a full trace
// (~10 bytes/inst plus slack, ~42 MB at the limit) would crowd the
// store's default memory bound, so sampled runs fall back to either
// live functional warming (warm mode) or a checkpoint-only log (seek
// mode). A var, not a const, so tests can exercise the big-budget
// paths cheaply.
var FullCaptureLimit uint64 = 4 << 20

// CheckpointInterval is the capture-time snapshot spacing for a given
// budget: budget/64 (so a trace carries at most ~64 checkpoints no
// matter how long) clamped to at least 32768 instructions (so short
// traces do not drown in page snapshots).
func CheckpointInterval(budget uint64) uint64 {
	iv := budget / 64
	if iv < 32768 {
		iv = 32768
	}
	return iv
}

// snapshot appends the machine's current architectural state as a new
// checkpoint: registers, PC, step count, OUT length, and the pages
// dirtied since the previous snapshot. pageBuf is a reusable scratch
// slice returned for the next call.
func (t *Trace) snapshot(m *emu.Machine, pageBuf []uint32) []uint32 {
	pageBuf = m.Mem.TakeDirty(pageBuf[:0])
	t.ckptSeq = append(t.ckptSeq, m.Steps)
	t.ckptPC = append(t.ckptPC, m.PC)
	t.ckptOutLen = append(t.ckptOutLen, uint64(len(m.Output)))
	t.ckptRegs = append(t.ckptRegs, m.Reg[:]...)
	for _, pn := range pageBuf {
		t.ckptPN = append(t.ckptPN, pn)
		off := len(t.ckptPages)
		t.ckptPages = append(t.ckptPages, make([]byte, emu.PageBytes)...)
		m.Mem.ReadPage(pn, t.ckptPages[off:])
	}
	t.ckptPageIdx = append(t.ckptPageIdx, uint32(len(t.ckptPN)))
	return pageBuf
}

// Checkpoints reports the number of architectural snapshots the trace
// carries.
func (t *Trace) Checkpoints() int { return len(t.ckptSeq) }

// CheckpointSeqs returns the dynamic sequence numbers of the carried
// checkpoints (test hook; the returned slice is the trace's own).
func (t *Trace) CheckpointSeqs() []uint64 { return t.ckptSeq }

// nearestCheckpoint returns the index of the latest checkpoint at or
// before target, or -1 when target precedes the first one.
func (t *Trace) nearestCheckpoint(target uint64) int {
	return sort.Search(len(t.ckptSeq), func(i int) bool { return t.ckptSeq[i] > target }) - 1
}

// restoreInto applies checkpoints 0..k in order onto a freshly
// constructed machine: page deltas accumulate, then registers, PC,
// step count, and program output snap to checkpoint k's values.
func (t *Trace) restoreInto(m *emu.Machine, k int) {
	for c := 0; c <= k; c++ {
		var start uint32
		if c > 0 {
			start = t.ckptPageIdx[c-1]
		}
		for i := start; i < t.ckptPageIdx[c]; i++ {
			off := int(i) * emu.PageBytes
			m.Mem.WritePage(t.ckptPN[i], t.ckptPages[off:off+emu.PageBytes])
		}
	}
	copy(m.Reg[:], t.ckptRegs[k*isa.NumRegs:(k+1)*isa.NumRegs])
	m.PC = t.ckptPC[k]
	m.Steps = t.ckptSeq[k]
	m.Halted = false
	m.Output = append(m.Output[:0], t.out[:t.ckptOutLen[k]]...)
}

// MachineAt reconstructs the architectural machine state just before
// record seq executes: restore from the nearest checkpoint at or below
// seq, then step the remainder. With no usable checkpoint it steps from
// instruction zero — correct, just slow. Test and validation hook for
// checkpoint fidelity.
func (t *Trace) MachineAt(prog *asm.Program, seq uint64) (*emu.Machine, error) {
	m := emu.New(prog)
	if k := t.nearestCheckpoint(seq); k >= 0 {
		t.restoreInto(m, k)
	}
	for m.Steps < seq && !m.Halted {
		if _, err := m.Step(); err != nil {
			return nil, fmt.Errorf("tracestore: stepping to seq %d from checkpoint: %w", seq, err)
		}
	}
	return m, nil
}

// Seek positions the replay cursor at seq without serving the
// intervening records: they are considered architecturally executed
// (the OUT high-water mark advances past them, matching what a
// checkpoint-restored machine's Output would hold) but the pipeline
// never observes them. Seeking backward is a no-op — the cursor only
// moves forward, like Release.
func (r *Replay) Seek(seq uint64) {
	if max := uint64(len(r.t.si)); seq > max {
		seq = max
	}
	if seq > r.hw {
		r.hw = seq
	}
	if seq > r.base {
		r.base = seq
	}
}

var _ emu.Seeker = (*Replay)(nil)

// CkptSource serves the correct-path stream by re-emulation, like the
// live oracle, but over a checkpoint-bearing Trace: Seek restores the
// nearest prior checkpoint instead of emulating every skipped
// instruction. It is the source for seek-mode sampled runs whose budget
// exceeds FullCaptureLimit, where the Trace is a checkpoint-only log
// (Len()==0) and a Replay would have nothing to serve.
type CkptSource struct {
	prog     *asm.Program
	t        *Trace
	window   int
	or       *emu.Oracle
	seeks    uint64
	restores uint64
}

var (
	_ emu.Source = (*CkptSource)(nil)
	_ emu.Seeker = (*CkptSource)(nil)
)

// NewCkptSource returns a source over t's checkpoints, re-emulating
// prog from a fresh machine. window pre-sizes the oracle ring (pass the
// pipeline's MaxOracleLead).
func NewCkptSource(prog *asm.Program, t *Trace, window int) *CkptSource {
	return &CkptSource{
		prog:   prog,
		t:      t,
		window: window,
		or:     emu.NewOracleSized(emu.New(prog), window),
	}
}

// At serves the record with dynamic sequence number seq.
func (s *CkptSource) At(seq uint64) (emu.Record, bool) { return s.or.At(seq) }

// Release discards records below upTo.
func (s *CkptSource) Release(upTo uint64) { s.or.Release(upTo) }

// Err reports an execution error hit while extending the stream.
func (s *CkptSource) Err() error { return s.or.Err() }

// Output returns the program's OUT bytes as executed so far.
func (s *CkptSource) Output() []byte { return s.or.Output() }

// Seek jumps the stream to seq: when a checkpoint lies between the
// machine's current position and the target, a fresh machine is
// restored from the latest such checkpoint and any residue is stepped
// functionally; otherwise the existing machine just runs (or releases)
// forward.
func (s *CkptSource) Seek(seq uint64) {
	s.seeks++
	if k := s.t.nearestCheckpoint(seq); k >= 0 && s.t.ckptSeq[k] > s.or.Machine().Steps {
		m := emu.New(s.prog)
		s.t.restoreInto(m, k)
		s.or = emu.NewOracleSized(m, s.window)
		s.restores++
	}
	s.or.SkipTo(seq)
}

// Seeks reports how many Seek calls were served (test/metrics hook).
func (s *CkptSource) Seeks() uint64 { return s.seeks }

// CheckpointRestores reports how many seeks restored from a checkpoint
// rather than running the machine forward.
func (s *CkptSource) CheckpointRestores() uint64 { return s.restores }
