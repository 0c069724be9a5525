package exec

// Pool recycles UOp structs so the steady-state cycle loop allocates
// nothing. Reuse is deferred: a uop leaving the window may still be
// referenced through SrcProd by younger in-flight instructions (operand
// availability is read off the producer until the consumer dispatches),
// so a pruned uop parks on a pending queue until every instruction that
// could hold such a reference has itself left the window.
//
// The safety invariant is sequence-number based. References to a uop are
// only acquired at rename time, and only while the uop is still in the
// in-flight table; therefore every possible referent of a uop pruned
// when the global sequence counter stood at W has Seq <= W. Once the
// oldest live instruction's Seq exceeds W, the parked uop is
// unreachable and moves to the free list. The engine's own lists and
// reservation stations never hold a pruned uop: they drop it first.
type Pool struct {
	free    []*UOp
	pending []*UOp // FIFO; freeAfter watermarks are monotonic
	head    int
}

// Get returns a zeroed UOp, reusing a reclaimed one when available.
func (p *Pool) Get() *UOp {
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*u = UOp{}
		return u
	}
	return new(UOp)
}

// Put returns a uop nothing can reference any more — one never issued
// into the window (a dropped fetch group), or one from a squashed suffix
// whose younger referents all died with it — for immediate reuse.
func (p *Pool) Put(u *UOp) {
	p.free = append(p.free, u)
}

// Defer parks a pruned uop until the watermark clears. watermark must
// be the highest sequence number issued at the time of pruning.
func (p *Pool) Defer(u *UOp, watermark uint64) {
	u.freeAfter = watermark
	p.pending = append(p.pending, u)
}

// Reclaim moves every parked uop whose watermark is below the oldest
// live sequence number onto the free list.
func (p *Pool) Reclaim(oldestLive uint64) {
	h := p.head
	for h < len(p.pending) && p.pending[h].freeAfter < oldestLive {
		p.free = append(p.free, p.pending[h])
		p.pending[h] = nil
		h++
	}
	p.head = h
	if h == len(p.pending) {
		p.pending = p.pending[:0]
		p.head = 0
	} else if h > 256 && h*2 > len(p.pending) {
		n := copy(p.pending, p.pending[h:])
		p.pending = p.pending[:n]
		p.head = 0
	}
}

// FreeLen reports the free-list length (test hook).
func (p *Pool) FreeLen() int { return len(p.free) }

// PendingLen reports the parked-uop count (test hook).
func (p *Pool) PendingLen() int { return len(p.pending) - p.head }
