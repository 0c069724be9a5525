// Package tracestore captures the correct-path dynamic instruction
// stream of a workload once per (workload, instruction budget) and
// replays it to any number of subsequent simulations.
//
// The stream the fill unit and the timing pipeline consume depends only
// on the program and the retirement budget — never on the machine
// configuration — so re-running the functional emulator for every config
// variant of a sweep is pure redundancy. A captured Trace is an
// immutable, compact, columnar (struct-of-arrays) record store that
// keeps only what the stream cannot imply. Per-static-instruction
// fields (the PC and decoded instruction) are interned into a side
// table and each dynamic record carries a 4-byte index into it; the
// dynamic sequence number is the record's position; a record's next PC
// is the following record's PC; and only loads and stores keep an
// effective address. The value and flag bits are packed flat arrays.
// Replay reconstructs emu.Record values on the fly with zero
// allocations and is bit-for-bit indistinguishable from live emulation.
package tracestore

import (
	"fmt"
	"math/bits"
	"sort"
	"unsafe"

	"tcsim/internal/asm"
	"tcsim/internal/emu"
	"tcsim/internal/isa"
)

// CaptureSlack is how many records past the retirement budget a capture
// extends. The pipeline fetches ahead of retirement by at most its
// in-flight window plus the fetch/issue latches, so a replayed run can
// legally touch records past its MaxInsts budget; the slack must exceed
// that maximum lead for every reachable configuration. A test in this
// package pins CaptureSlack against pipeline.MaxOracleLead, and Replay
// panics loudly if a truncated trace is ever read past its end — a
// silent divergence from live emulation is never possible.
const CaptureSlack = 4096

// Record flag bits (the bool columns of emu.Record, packed).
const (
	flagTaken = 1 << iota
	flagLoad
	flagStore

	flagMem = flagLoad | flagStore
)

// memFlags returns the flag bits a record of op carries for its memory
// access: flagLoad for a load, flagStore for a store, 0 otherwise.
func memFlags(op isa.Op) uint8 {
	switch {
	case op.IsLoad():
		return flagLoad
	case op.IsStore():
		return flagStore
	}
	return 0
}

// Trace is one captured correct-path stream: an immutable columnar
// record store plus the program OUT bytes needed to reconstruct
// Machine.Output at any replay high-water mark. All fields are read-only
// after capture (or load); a Trace is safe for concurrent replay.
type Trace struct {
	name   string
	budget uint64

	// Interned per-static-instruction side table. staticWord holds the
	// raw encodings for serialization; staticInst the decoded forms the
	// records are reconstructed from.
	staticPC   []uint32
	staticWord []uint32
	staticInst []isa.Inst

	// Per-record columns; the record's Seq is its index, and its next
	// PC is the following record's PC.
	si    []uint32 // index into the static table
	val   []uint32 // destination/store value (else 0)
	flags []uint8

	// Effective addresses of the loads and stores only, in stream
	// order, and the rank index that finds a record's: memBase[b]
	// counts the memory records before block b (records 64b..64b+63),
	// and bit j of memMask[b] marks record 64b+j as one.
	ea      []uint32
	memBase []uint32
	memMask []uint64

	// lastNext is the last record's next PC, which no following record
	// holds: the PC after a HALT, the PC of the instruction that
	// faulted, or the first PC past a capture cut at budget+slack.
	lastNext uint32

	// OUT reconstruction: out[i] was emitted by record outAt[i]
	// (ascending).
	outAt []uint64
	out   []byte

	// halted: the stream ends because the program executed HALT.
	// stepErr: the stream ends because extending it hit an execution
	// error (illegal instruction). When neither is set the capture was
	// truncated at budget+slack and reading past the end is a bug.
	halted  bool
	stepErr error

	// Periodic architectural checkpoints (checkpoint.go): columnar like
	// the records. Checkpoint k's page delta spans ckptPN/ckptPages
	// indices [ckptPageIdx[k-1], ckptPageIdx[k]) (0 for k==0), and its
	// registers are ckptRegs[k*isa.NumRegs : (k+1)*isa.NumRegs].
	ckptSeq     []uint64
	ckptPC      []uint32
	ckptOutLen  []uint64
	ckptRegs    []uint32
	ckptPageIdx []uint32
	ckptPN      []uint32
	ckptPages   []byte

	// Lazily built future-reference indexes for the Belady oracle
	// replacement policy (future.go). Derived views: never serialized.
	futureState
}

// Capture runs the functional emulator over prog and records the
// correct-path stream: budget+CaptureSlack records, or fewer if the
// program halts (or faults) first. budget must be non-zero — an
// unbounded capture of a non-halting workload would never return.
// Periodic architectural checkpoints (CheckpointInterval apart) are
// recorded alongside the records so a replay can seek instead of
// streaming from instruction zero.
func Capture(name string, prog *asm.Program, budget uint64) (*Trace, error) {
	return capture(name, prog, budget, true)
}

// CaptureCheckpointLog runs the same functional capture but keeps only
// the periodic checkpoints and the OUT stream, not the per-instruction
// record columns: the seekable skeleton that seek-mode sampled runs use
// when the full columnar trace would blow the store's memory bound
// (budget > FullCaptureLimit). The resulting Trace has Len()==0 and is
// served through a CkptSource, never a Replay.
func CaptureCheckpointLog(name string, prog *asm.Program, budget uint64) (*Trace, error) {
	return capture(name, prog, budget, false)
}

func capture(name string, prog *asm.Program, budget uint64, records bool) (*Trace, error) {
	if budget == 0 {
		return nil, fmt.Errorf("tracestore: refusing unbounded capture of %q (budget 0)", name)
	}
	limit := budget
	if records {
		limit += CaptureSlack
	}
	t := &Trace{name: name, budget: budget}

	// Intern key: the raw word as well as the PC, so self-modifying text
	// (a store into the text image) can never alias two different
	// dynamic instructions onto one static entry.
	type staticKey struct{ pc, word uint32 }
	var intern map[staticKey]uint32
	if records {
		t.si = make([]uint32, 0, limit)
		t.val = make([]uint32, 0, limit)
		t.flags = make([]uint8, 0, limit)
		t.ea = make([]uint32, 0, memCap(limit))
		intern = make(map[staticKey]uint32)
	}

	interval := CheckpointInterval(budget)
	nextCkpt := interval
	var pageBuf []uint32

	m := emu.New(prog)
	// Dirty tracking starts after the program image is loaded, so
	// checkpoints carry only the pages mutated since the previous one.
	m.Mem.TrackDirty()
	var n uint64
	for n < limit {
		pc := m.PC
		var word uint32
		if records {
			word = m.Mem.Read32(pc)
		}
		rec, err := m.Step()
		if err != nil {
			t.stepErr = err
			break
		}
		n++
		if records {
			k := staticKey{pc, word}
			idx, ok := intern[k]
			if !ok {
				idx = uint32(len(t.staticPC))
				intern[k] = idx
				t.staticPC = append(t.staticPC, pc)
				t.staticWord = append(t.staticWord, word)
				t.staticInst = append(t.staticInst, rec.Inst)
			}
			var fl uint8
			if rec.Taken {
				fl |= flagTaken
			}
			if rec.Load {
				fl |= flagLoad
			}
			if rec.Store {
				fl |= flagStore
			}
			t.si = append(t.si, idx)
			t.val = append(t.val, rec.Val)
			t.flags = append(t.flags, fl)
			if fl&flagMem != 0 {
				t.ea = append(t.ea, rec.EA)
			}
		}
		if rec.Inst.Op == isa.OUT {
			t.outAt = append(t.outAt, rec.Seq)
		}
		if m.Halted {
			t.halted = true
			break
		}
		// Snapshot only inside the budget: the slack region is fetch-ahead
		// territory that no seek ever targets.
		if n == nextCkpt && n <= budget {
			pageBuf = t.snapshot(m, pageBuf)
			nextCkpt += interval
		}
	}
	t.out = m.Output // the machine goes with this call; seal trims it
	if len(t.outAt) != len(t.out) {
		return nil, fmt.Errorf("tracestore: capture of %q desynced OUT stream (%d records, %d bytes)",
			name, len(t.outAt), len(t.out))
	}
	// Whether the stream halted, faulted or was cut, the machine's PC is
	// where the last record went next.
	t.lastNext = m.PC
	t.seal()
	return t, nil
}

// seal ends a capture or a decode: it trims every column to its exact
// length, so Bytes counts what the trace holds, and builds the address
// rank index from the flags.
func (t *Trace) seal() {
	t.staticPC = exact(t.staticPC)
	t.staticWord = exact(t.staticWord)
	t.staticInst = exact(t.staticInst)
	t.si = exact(t.si)
	t.val = exact(t.val)
	t.flags = exact(t.flags)
	t.ea = exact(t.ea)
	t.outAt = exact(t.outAt)
	t.out = exact(t.out)
	t.ckptSeq = exact(t.ckptSeq)
	t.ckptPC = exact(t.ckptPC)
	t.ckptOutLen = exact(t.ckptOutLen)
	t.ckptRegs = exact(t.ckptRegs)
	t.ckptPageIdx = exact(t.ckptPageIdx)
	t.ckptPN = exact(t.ckptPN)
	t.ckptPages = exact(t.ckptPages)

	blocks := (len(t.flags) + 63) / 64
	t.memBase = make([]uint32, blocks)
	t.memMask = make([]uint64, blocks)
	var mem uint32
	for i, fl := range t.flags {
		if i%64 == 0 {
			t.memBase[i/64] = mem
		}
		if fl&flagMem != 0 {
			t.memMask[i/64] |= 1 << (i % 64)
			mem++
		}
	}
}

// memCap sizes the address column of a stream of n records before its
// loads and stores are counted: a quarter, above the 0-20% share of the
// bundled workloads, so the column rarely grows before seal trims it.
func memCap(n uint64) uint64 { return n / 4 }

// exact returns s in an allocation of exactly len(s) elements.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// Name returns the workload name the trace was captured for.
func (t *Trace) Name() string { return t.name }

// Budget returns the retirement budget the trace was captured under.
func (t *Trace) Budget() uint64 { return t.budget }

// Len reports the number of captured records.
func (t *Trace) Len() uint64 { return uint64(len(t.si)) }

// Complete reports whether the stream's end is architecturally defined
// (HALT or an execution fault) rather than a capture truncation.
func (t *Trace) Complete() bool { return t.halted || t.stepErr != nil }

// Bytes reports the trace's resident size, for the store's LRU
// accounting: the bytes of its columns, each exactly its length.
func (t *Trace) Bytes() int64 {
	const instSize = int64(unsafe.Sizeof(isa.Inst{}))
	return int64(len(t.staticPC))*(4+4+instSize) +
		int64(len(t.si))*(4+4+1) + int64(len(t.ea))*4 +
		int64(len(t.memBase))*(4+8) +
		int64(len(t.outAt))*8 + int64(len(t.out)) +
		int64(len(t.ckptSeq))*(8+4+8+4) + int64(len(t.ckptRegs))*4 +
		int64(len(t.ckptPN))*4 + int64(len(t.ckptPages))
}

// record reconstructs the emu.Record at index i from its columns and
// the two fields the stream implies, which the caller derives with
// nextPCAt and addr. Pure value construction: no allocation, and cheap
// enough to inline into At.
func (t *Trace) record(i uint64, next, ea uint32) emu.Record {
	s := t.si[i]
	fl := t.flags[i]
	return emu.Record{
		Seq:    i,
		PC:     t.staticPC[s],
		Inst:   t.staticInst[s],
		NextPC: next,
		Taken:  fl&flagTaken != 0,
		EA:     ea,
		Store:  fl&flagStore != 0,
		Load:   fl&flagLoad != 0,
		Val:    t.val[i],
	}
}

// nextPCAt returns record i's next PC: the following record's PC, or
// lastNext for the last record.
func (t *Trace) nextPCAt(i uint64) uint32 {
	if i+1 < uint64(len(t.si)) {
		return t.staticPC[t.si[i+1]]
	}
	return t.lastNext
}

// addr returns record i's effective address: 0 unless it is a load or
// a store, whose rank among the memory records indexes ea.
func (t *Trace) addr(i uint64) uint32 {
	b, bit := i/64, uint64(1)<<(i%64)
	m := t.memMask[b]
	if m&bit == 0 {
		return 0
	}
	return t.ea[t.memBase[b]+uint32(bits.OnesCount64(m&(bit-1)))]
}

// NewReplay returns a fresh replay cursor over the trace. Each simulator
// run takes its own Replay; the underlying Trace is shared and
// immutable.
func (t *Trace) NewReplay() *Replay { return &Replay{t: t} }

// Replay serves a captured Trace through the emu.Source interface with
// live-oracle semantics: a sliding released window, lazy-machine OUT
// reconstruction, and the live implementation's end-of-stream and error
// behavior. The steady-state path (At/Release) never allocates.
type Replay struct {
	t       *Trace
	base    uint64 // lowest non-released seq (for the released-read panic)
	hw      uint64 // records "stepped": max seq served + 1, like the lazy machine
	stepErr error  // set once replay extends past a faulting stream's end
}

var _ emu.Source = (*Replay)(nil)

// At returns the record with dynamic sequence number seq, mirroring the
// live oracle exactly: ok=false past the end of a complete stream,
// panic on a released seq. Reading past the end of a truncated
// (incomplete) trace panics — it means CaptureSlack was smaller than
// the pipeline's fetch-ahead and silently diverging from live emulation
// is not an option.
func (r *Replay) At(seq uint64) (emu.Record, bool) {
	if seq < r.base {
		panic(fmt.Sprintf("emu: oracle record %d already released (base %d)", seq, r.base))
	}
	t := r.t
	if seq >= uint64(len(t.si)) {
		if !t.Complete() {
			panic(fmt.Sprintf("tracestore: replay of %q read record %d past the %d captured (budget %d + slack %d): capture slack is smaller than the pipeline's fetch-ahead",
				t.name, seq, len(t.si), t.budget, CaptureSlack))
		}
		// The live machine would have stepped everything up to the end
		// while failing to reach seq.
		r.hw = uint64(len(t.si))
		r.stepErr = t.stepErr
		return emu.Record{}, false
	}
	if seq+1 > r.hw {
		r.hw = seq + 1
	}
	return t.record(seq, t.nextPCAt(seq), t.addr(seq)), true
}

// Release discards records with Seq < upTo.
func (r *Replay) Release(upTo uint64) {
	if upTo > r.base {
		r.base = upTo
	}
}

// Err reports the execution error at the stream's end, once replay has
// actually reached it — the same laziness as the live oracle.
func (r *Replay) Err() error { return r.stepErr }

// Output returns the OUT bytes the program had emitted by the replay's
// high-water record — exactly what the lazily stepped live machine's
// Output holds at the same point.
func (r *Replay) Output() []byte {
	n := sort.Search(len(r.t.outAt), func(i int) bool { return r.t.outAt[i] >= r.hw })
	return r.t.out[:n]
}
