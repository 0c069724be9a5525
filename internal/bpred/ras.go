package bpred

// RAS is a circular return address stack operated speculatively at fetch
// time. Mispredictions restore it from a Snapshot taken when the
// checkpoint was created; because the stack is circular and snapshots
// capture the top entry, single-level corruption repairs exactly and
// deeper corruption degrades gracefully — the standard hardware design.
type RAS struct {
	stack []uint32
	top   int // index of the current top entry

	Pushes uint64
	Pops   uint64
}

// NewRAS builds a stack with the given number of entries.
func NewRAS(entries int) *RAS {
	if entries <= 0 {
		panic("bpred: RAS needs at least one entry")
	}
	return &RAS{stack: make([]uint32, entries)}
}

// Push records a return address at a call.
func (r *RAS) Push(addr uint32) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
	r.Pushes++
}

// Pop predicts the target of a return.
func (r *RAS) Pop() uint32 {
	addr := r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.Pops++
	return addr
}

// Peek returns the current top without popping.
func (r *RAS) Peek() uint32 { return r.stack[r.top] }

// Snapshot captures the state needed to repair the stack at a checkpoint.
type RASSnapshot struct {
	Top   int
	Entry uint32
}

// Snapshot returns the repair state for the current stack position.
func (r *RAS) Snapshot() RASSnapshot {
	return RASSnapshot{Top: r.top, Entry: r.stack[r.top]}
}

// Restore rewinds the stack to a snapshot.
func (r *RAS) Restore(s RASSnapshot) {
	r.top = s.Top
	r.stack[r.top] = s.Entry
}

// Reset clears the stack.
func (r *RAS) Reset() {
	for i := range r.stack {
		r.stack[i] = 0
	}
	r.top = 0
	r.Pushes, r.Pops = 0, 0
}

// IndirectTargets is a direct-mapped last-target buffer predicting the
// destinations of non-return indirect jumps (switch tables, interpreter
// dispatch, virtual calls).
type IndirectTargets struct {
	targets []uint32
	valid   []bool
	mask    uint32
}

// NewIndirectTargets builds a buffer with a power-of-two entry count.
func NewIndirectTargets(entries int) *IndirectTargets {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: ITB entries must be a positive power of two")
	}
	return &IndirectTargets{
		targets: make([]uint32, entries),
		valid:   make([]bool, entries),
		mask:    uint32(entries - 1),
	}
}

// Predict returns the last observed target for the jump at pc; ok is
// false when no target has been recorded yet.
func (t *IndirectTargets) Predict(pc uint32) (uint32, bool) {
	i := (pc >> 2) & t.mask
	return t.targets[i], t.valid[i]
}

// Update records the resolved target.
func (t *IndirectTargets) Update(pc, target uint32) {
	i := (pc >> 2) & t.mask
	t.targets[i] = target
	t.valid[i] = true
}

// Reset clears the buffer: a reset buffer predicts (0, false), like a
// fresh one.
func (t *IndirectTargets) Reset() {
	clear(t.targets)
	clear(t.valid)
}
