// Package rename implements tag-based register renaming with checkpoint
// repair (Hwu & Patt), as the paper's execution model uses: a register
// alias table maps each architectural register to either "ready" (the
// value is in the register file) or the tag of the in-flight producing
// instruction. Checkpoints snapshot the table at block boundaries (up to
// three per cycle, one per block supplied) so mispredictions and
// exceptions restore in one step.
//
// The package also implements the paper's register-move execution (§4.2):
// a marked move is complete as soon as rename copies the source's mapping
// into the destination's entry — it never visits a reservation station or
// functional unit.
package rename

import "tcsim/internal/isa"

// Tag identifies an in-flight producing instruction (the pipeline uses
// the instruction's global sequence number).
type Tag = uint64

// Entry is one RAT entry.
type Entry struct {
	Ready bool // value lives in the register file
	Tag   Tag  // producing instruction when not ready
}

// RAT is the register alias table. It is a plain value: assigning one
// RAT to another forks an independent copy, which is how the pipeline
// renames inactive-issued blocks down a trace's embedded path without
// disturbing the predicted path's table.
type RAT struct {
	e [isa.NumRegs]Entry
}

// NewRAT returns a table with every register ready.
func NewRAT() *RAT {
	r := &RAT{}
	r.Reset()
	return r
}

// Reset maps every register to ready in place (a flush at retirement:
// no in-flight producers remain).
func (r *RAT) Reset() {
	for i := range r.e {
		r.e[i] = Entry{Ready: true}
	}
}

// Lookup returns the mapping for reg. R0 is always ready.
func (r *RAT) Lookup(reg isa.Reg) Entry {
	if reg == isa.R0 {
		return Entry{Ready: true}
	}
	return r.e[reg]
}

// SetDest records that reg is now produced by the instruction with the
// given tag. Writes to R0 are ignored.
func (r *RAT) SetDest(reg isa.Reg, tag Tag) {
	if reg == isa.R0 {
		return
	}
	r.e[reg] = Entry{Tag: tag}
}

// Alias executes a marked register move: the destination's entry becomes
// a copy of the source's current entry, so consumers of either register
// receive the same value or the same tag (paper §4.2, figure 2). It
// returns the entry that was copied.
func (r *RAT) Alias(dst, src isa.Reg) Entry {
	e := r.Lookup(src)
	if dst != isa.R0 {
		r.e[dst] = e
	}
	return e
}

// Broadcast marks every entry still carrying tag as ready (the producing
// instruction has executed and its value is being written back).
func (r *RAT) Broadcast(tag Tag) {
	for i := range r.e {
		if !r.e[i].Ready && r.e[i].Tag == tag {
			r.e[i].Ready = true
		}
	}
}

// Snapshot returns a copy of the table for checkpoint repair.
func (r *RAT) Snapshot() Snapshot { return Snapshot{e: r.e} }

// Restore rewinds the table to a snapshot.
func (r *RAT) Restore(s Snapshot) { r.e = s.e }

// RestoreFrom rewinds the table to pooled snapshot storage.
func (r *RAT) RestoreFrom(s *Snapshot) { r.e = s.e }

// Snapshot is an immutable copy of the full table.
type Snapshot struct {
	e [isa.NumRegs]Entry
}

// Lookup reads an entry from the snapshot (test hook).
func (s Snapshot) Lookup(reg isa.Reg) Entry {
	if reg == isa.R0 {
		return Entry{Ready: true}
	}
	return s.e[reg]
}

// CheckpointPool bounds the number of in-flight checkpoints the way the
// hardware's checkpoint storage does; fetch stalls when none are free.
// It also recycles the snapshot storage itself: a Snapshot is ~1KB, so
// letting each checkpointed branch heap-allocate one would dominate the
// cycle loop's allocation profile.
type CheckpointPool struct {
	capacity int
	inUse    int
	free     []*Snapshot
}

// NewCheckpointPool creates a pool with the given capacity.
func NewCheckpointPool(capacity int) *CheckpointPool {
	if capacity <= 0 {
		capacity = 64
	}
	return &CheckpointPool{capacity: capacity}
}

// Available reports how many checkpoints may still be allocated.
func (p *CheckpointPool) Available() int { return p.capacity - p.inUse }

// Allocate claims n checkpoints; it returns false (claiming none) when
// fewer than n are free.
func (p *CheckpointPool) Allocate(n int) bool {
	if p.inUse+n > p.capacity {
		return false
	}
	p.inUse += n
	return true
}

// Release frees n checkpoints (retirement past a branch, or squash).
func (p *CheckpointPool) Release(n int) {
	p.inUse -= n
	if p.inUse < 0 {
		p.inUse = 0
	}
}

// Reset frees everything.
func (p *CheckpointPool) Reset() { p.inUse = 0 }

// Grab returns recycled snapshot storage holding a copy of r. The caller
// must hand the snapshot back with PutBack when the checkpoint is
// released (retirement past the branch, or squash); until then the
// pointer is stable and never rewritten by the pool.
func (p *CheckpointPool) Grab(r *RAT) *Snapshot {
	var s *Snapshot
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		s = new(Snapshot)
	}
	s.e = r.e
	return s
}

// PutBack recycles snapshot storage obtained from Grab.
func (p *CheckpointPool) PutBack(s *Snapshot) {
	if s != nil {
		p.free = append(p.free, s)
	}
}
