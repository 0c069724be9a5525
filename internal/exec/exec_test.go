package exec

import (
	"testing"

	"tcsim/internal/cache"
	"tcsim/internal/isa"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	h, err := cache.NewHierarchy(cache.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(Config{}, h)
}

var seqCounter uint64

func alu(fu int, deps ...*UOp) *UOp {
	seqCounter++
	u := &UOp{
		Seq:  seqCounter,
		Inst: isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		Orig: isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		FU:   fu,
	}
	for _, d := range deps {
		u.SrcProd[u.NSrc] = d
		u.NSrc++
	}
	if u.NSrc == 0 {
		u.NSrc = 1 // live-in operand
	}
	return u
}

// run cycles the engine until the uop completes or the bound expires,
// returning the completion-visible cycle.
func runUntil(t *testing.T, e *Engine, u *UOp, bound uint64) uint64 {
	t.Helper()
	for c := uint64(0); c <= bound; c++ {
		e.Cycle(c)
		if u.CompletedBy(c) {
			return c
		}
	}
	t.Fatalf("uop %d did not complete within %d cycles (state %d)", u.Seq, bound, u.State)
	return 0
}

func TestSimpleALUDispatch(t *testing.T) {
	e := newEngine(t)
	u := alu(0)
	e.Issue(u, 0)
	e.Cycle(0)
	if u.State != StateComplete || u.ResultTime != 1 {
		t.Errorf("state=%d result=%d", u.State, u.ResultTime)
	}
	if u.CompletedBy(0) {
		t.Error("not complete before result time")
	}
	if !u.CompletedBy(1) {
		t.Error("complete at result time")
	}
}

func TestBackToBackSameCluster(t *testing.T) {
	e := newEngine(t)
	p := alu(0)
	c := alu(1, p) // FU 1: same cluster as FU 0
	e.Issue(p, 0)
	e.Issue(c, 0)
	e.Cycle(0) // p dispatches; result at 1
	e.Cycle(1) // c sees p's result at 1 (same cluster): dispatches
	if c.DispatchCycle != 1 {
		t.Errorf("consumer dispatched at %d, want 1 (back-to-back)", c.DispatchCycle)
	}
	if c.BypassDelayed {
		t.Error("same-cluster consumer should not be bypass-delayed")
	}
}

func TestCrossClusterPenalty(t *testing.T) {
	e := newEngine(t)
	p := alu(0)    // cluster 0
	c := alu(4, p) // cluster 1
	e.Issue(p, 0)
	e.Issue(c, 0)
	e.Cycle(0)
	e.Cycle(1) // p's result visible in cluster 1 only at cycle 2
	if c.DispatchCycle == 1 {
		t.Fatal("cross-cluster consumer dispatched without penalty")
	}
	e.Cycle(2)
	if c.DispatchCycle != 2 {
		t.Errorf("consumer dispatched at %d, want 2", c.DispatchCycle)
	}
	if !c.BypassDelayed {
		t.Error("cross-cluster consumer should count as bypass-delayed (Fig 7)")
	}
}

func TestMulDivLatency(t *testing.T) {
	e := newEngine(t)
	m := alu(0)
	m.Inst.Op = isa.MUL
	d := alu(1)
	d.Inst.Op = isa.DIV
	e.Issue(m, 0)
	e.Issue(d, 0)
	e.Cycle(0)
	if m.ResultTime != 3 || d.ResultTime != 12 {
		t.Errorf("mul=%d div=%d", m.ResultTime, d.ResultTime)
	}
}

func TestOnePerFUPerCycle(t *testing.T) {
	e := newEngine(t)
	a := alu(0)
	b := alu(0) // same FU
	e.Issue(a, 0)
	e.Issue(b, 0)
	e.Cycle(0)
	if !a.HasResult || b.HasResult {
		t.Error("exactly the oldest should dispatch on a shared FU")
	}
	e.Cycle(1)
	if !b.HasResult || b.DispatchCycle != 1 {
		t.Error("second uop should dispatch the next cycle")
	}
}

func TestMoveAdoption(t *testing.T) {
	e := newEngine(t)
	p := alu(0)
	p.Inst.Op = isa.MUL // result at 3
	mv := alu(1, p)
	mv.MoveBit = true
	e.Issue(p, 0)
	e.Issue(mv, 0)
	e.Cycle(0)
	if !mv.HasResult {
		t.Fatal("move should adopt as soon as the producer schedules")
	}
	if mv.ResultTime != p.ResultTime || mv.ResultCluster != p.ResultCluster {
		t.Errorf("move result %d/%d, producer %d/%d", mv.ResultTime, mv.ResultCluster, p.ResultTime, p.ResultCluster)
	}
	if e.RSOccupancy(1) != 0 {
		t.Error("moves must not occupy reservation stations")
	}
}

func TestMoveOfReadyValueCompletesAtIssue(t *testing.T) {
	e := newEngine(t)
	mv := alu(0)
	mv.MoveBit = true
	e.Issue(mv, 5)
	if !mv.HasResult || mv.ResultTime != 5 || mv.ResultCluster != GlobalCluster {
		t.Errorf("move = %+v", mv.HasResult)
	}
}

func TestNonFUOps(t *testing.T) {
	e := newEngine(t)
	for _, op := range []isa.Op{isa.NOP, isa.J, isa.JAL, isa.HALT, isa.OUT} {
		seqCounter++
		u := &UOp{Seq: seqCounter, Inst: isa.Inst{Op: op}, FU: 0}
		e.Issue(u, 3)
		if !u.CompletedBy(3) {
			t.Errorf("%v should complete at issue", op)
		}
	}
	if e.RSOccupancy(0) != 0 {
		t.Error("non-FU ops must not hold RS entries")
	}
}

func mem(fu int, op isa.Op, ea uint32, onPath bool, deps ...*UOp) *UOp {
	seqCounter++
	u := &UOp{
		Seq: seqCounter, FU: fu, OnPath: onPath, EA: ea,
		Inst: isa.Inst{Op: op, Rt: isa.T0, Rs: isa.T1, Imm: 0},
		Orig: isa.Inst{Op: op, Rt: isa.T0, Rs: isa.T1, Imm: 0},
	}
	// Operand 0: address base.
	u.NSrc = 1
	u.SrcAddr[0] = true
	if len(deps) > 0 {
		u.SrcProd[0] = deps[0]
	}
	if op.IsStore() {
		// Operand 1: data.
		u.NSrc = 2
		if len(deps) > 1 {
			u.SrcProd[1] = deps[1]
		}
	}
	return u
}

func TestLoadHitLatency(t *testing.T) {
	e := newEngine(t)
	// Warm the cache.
	e.hier.DataAccess(0x1000, false)
	ld := mem(0, isa.LW, 0x1000, true)
	e.Issue(ld, 0)
	done := runUntil(t, e, ld, 20)
	// Dispatch 0, AGEN done at 1, access at 1 with latency 1 => result 2.
	if done != 2 {
		t.Errorf("load hit completed at %d, want 2", done)
	}
}

func TestLoadMissLatency(t *testing.T) {
	e := newEngine(t)
	ld := mem(0, isa.LW, 0x2000, true)
	e.Issue(ld, 0)
	done := runUntil(t, e, ld, 100)
	// Cold: L1 miss + L2 miss => 1 + 50 after AGEN at 1 => 52.
	if done != 52 {
		t.Errorf("cold load completed at %d, want 52", done)
	}
}

func TestWrongPathLoadDoesNotTouchCache(t *testing.T) {
	e := newEngine(t)
	before := e.hier.L1D.Misses
	ld := mem(0, isa.LW, 0xE0000000, false)
	e.Issue(ld, 0)
	done := runUntil(t, e, ld, 20)
	if e.hier.L1D.Misses != before {
		t.Error("wrong-path load accessed the cache")
	}
	if done != 2 {
		t.Errorf("wrong-path load completed at %d, want hit-latency 2", done)
	}
}

func TestStoreForwarding(t *testing.T) {
	e := newEngine(t)
	st := mem(0, isa.SW, 0x3000, true)
	ld := mem(1, isa.LW, 0x3000, true)
	e.Issue(st, 0)
	e.Issue(ld, 0)
	done := runUntil(t, e, ld, 20)
	if e.Stats.LoadsForwarded != 1 {
		t.Error("load should forward from the store")
	}
	// st dispatch 0, addr known 1; ld addr 1; forward at cycle 1 => 2.
	if done != 2 {
		t.Errorf("forwarded load completed at %d", done)
	}
	if e.Stats.LoadsAccessed != 0 {
		t.Error("forwarded load must not access the cache")
	}
}

func TestLoadBlockedByUnknownStoreAddress(t *testing.T) {
	e := newEngine(t)
	slowProducer := alu(0)
	slowProducer.Inst.Op = isa.DIV                   // result at 12
	st := mem(1, isa.SW, 0x4000, true, slowProducer) // address depends on div
	ld := mem(2, isa.LW, 0x5000, true)               // different address, but must wait
	e.Issue(slowProducer, 0)
	e.Issue(st, 0)
	e.Issue(ld, 0)
	done := runUntil(t, e, ld, 100)
	if e.Stats.LoadsBlocked == 0 {
		t.Error("load should have been blocked behind the unknown store address")
	}
	// div result 12 -> store AGEN dispatch at 12, addr known 13; load can
	// access at 13; cold miss 51 => 64.
	if done < 60 {
		t.Errorf("load completed at %d; should wait for the store address", done)
	}
}

func TestStoreCompletion(t *testing.T) {
	e := newEngine(t)
	dataProducer := alu(0)
	dataProducer.Inst.Op = isa.MUL // result 3
	st := mem(1, isa.SW, 0x6000, true, nil, dataProducer)
	st.SrcProd[0] = nil // address ready at issue
	e.Issue(dataProducer, 0)
	e.Issue(st, 0)
	done := runUntil(t, e, st, 20)
	// Store completes when addr (1) and data (3) are both available.
	if done != 3 {
		t.Errorf("store completed at %d, want 3", done)
	}
}

func TestRSAccounting(t *testing.T) {
	e := newEngine(t)
	var uops []*UOp
	for i := 0; i < 5; i++ {
		u := alu(0)
		// Block dispatch forever with an unscheduled producer.
		blocker := alu(15)
		blocker.InRS = false // never issued: not schedulable
		u.SrcProd[0] = blocker
		uops = append(uops, u)
		e.Issue(u, 0)
	}
	if e.RSOccupancy(0) != 5 {
		t.Errorf("occupancy = %d", e.RSOccupancy(0))
	}
	if !e.RSSpaceFor([]int{0, 0, 0}) {
		t.Error("space for 3 more should exist (32-entry RS)")
	}
	many := make([]int, 28)
	if e.RSSpaceFor(many) {
		t.Error("28 more should not fit with 5 occupied")
	}
	e.Kill(uops[0])
	if e.RSOccupancy(0) != 4 {
		t.Error("kill should free the RS entry")
	}
}

// TestSleepingEntries: an RS entry whose producer is unscheduled goes
// to sleep on it when it is issued. The producer's scheduled result
// wakes it in time to dispatch at its ready cycle, a sleeping consumer
// that dies leaves the producer's waiter list, and a producer that dies
// wakes its sleepers (a dead producer reads as ready).
func TestSleepingEntries(t *testing.T) {
	e := newEngine(t)
	p := alu(1)
	c := alu(0, p) // issued after p, which is unscheduled: c sleeps on it
	e.Issue(p, 0)
	e.Issue(c, 0)
	if p.waiters != c {
		t.Fatal("c should sleep on p from its issue")
	}
	e.Cycle(0)
	if p.waiters != nil {
		t.Error("p's dispatch should have woken its sleeper")
	}
	e.Cycle(1)
	if c.DispatchCycle != 1 {
		t.Errorf("woken consumer dispatched at %d, want 1 (back-to-back)", c.DispatchCycle)
	}

	blocker := alu(15) // never issued: q stays unscheduled
	q := alu(4, blocker)
	c1, c2 := alu(5, q), alu(6, q)
	for _, u := range []*UOp{q, c1, c2} {
		e.Issue(u, 2) // each goes to sleep as it is issued
	}
	e.Cycle(2)
	if blocker.waiters != q || q.waiters == nil {
		t.Fatal("q should sleep on the blocker, c1 and c2 on q")
	}
	e.Kill(c2)
	for w := q.waiters; w != nil; w = w.nextWaiter {
		if w == c2 {
			t.Error("a killed sleeper stayed on its producer's waiter list")
		}
	}
	e.Kill(q)
	if q.waiters != nil || blocker.waiters != nil {
		t.Error("killing q should empty both waiter lists")
	}
	e.Cycle(3)
	if c1.DispatchCycle != 3 {
		t.Errorf("consumer of a killed producer dispatched at %d, want 3", c1.DispatchCycle)
	}
}

// TestRecycledRSUopDispatchesOnce pins the reservation-station side of
// the recycled-uop hazard: a uop killed while RS-resident, in a cycle
// with no other RS work, must leave its FU's queue at once. Otherwise,
// once the pool reclaims its storage and reissues it on another FU, the
// stale entry would dispatch the new uop a second time, from the wrong
// FU, when the dead uop's producer delivers.
func TestRecycledRSUopDispatchesOnce(t *testing.T) {
	e := newEngine(t)
	var pool Pool
	prod := alu(1)
	prod.Inst.Op = isa.DIV // result at cycle 12
	victim := pool.Get()
	*victim = *alu(0, prod)
	e.Issue(prod, 0)
	e.Issue(victim, 0)
	e.Cycle(0)     // prod dispatches; victim waits on it
	e.Kill(victim) // the last RS-resident uop: no RS work remains
	if got := e.RSOccupancy(0); got != 0 {
		t.Fatalf("RS occupancy of FU 0 after kill = %d, want 0", got)
	}
	e.Cycle(1)
	e.PruneRecycle(&pool, victim.Seq)
	pool.Reclaim(prod.Seq)

	u := pool.Get()
	if u != victim {
		t.Fatal("pool did not hand back the killed uop's storage")
	}
	*u = *alu(5) // another FU, no producers: ready at issue
	e.Issue(u, 2)
	if e.RSOccupancy(0) != 0 || e.RSOccupancy(5) != 1 {
		t.Fatalf("RS occupancy FU0=%d FU5=%d after reissue, want 0 and 1", e.RSOccupancy(0), e.RSOccupancy(5))
	}
	for c := uint64(2); c < 20; c++ {
		e.Cycle(c)
	}
	if e.Stats.Dispatched != 2 || u.DispatchCycle != 2 {
		t.Errorf("%d dispatches (want 2: prod and the reissued uop), reissued uop last dispatched at %d (want 2)",
			e.Stats.Dispatched, u.DispatchCycle)
	}
	if e.RSOccupancy(0) != 0 || e.RSOccupancy(5) != 0 {
		t.Errorf("RS occupancy FU0=%d FU5=%d after dispatch, want 0 and 0", e.RSOccupancy(0), e.RSOccupancy(5))
	}
}

func TestWindowSpaceAndPrune(t *testing.T) {
	e := newEngine(t)
	total := e.Config().WindowSize
	if e.WindowSpace() != total {
		t.Errorf("fresh window space = %d", e.WindowSpace())
	}
	a := alu(0)
	b := alu(1)
	e.Issue(a, 0)
	e.Issue(b, 0)
	if e.WindowSpace() != total-2 {
		t.Errorf("space = %d", e.WindowSpace())
	}
	a.Retired = true
	e.PruneRecycle(nil, 0)
	if e.Len() != 1 || e.At(0) != b {
		t.Error("prune should drop the retired head")
	}
	e.Kill(b)
	e.PruneRecycle(nil, 0)
	if e.Len() != 0 {
		t.Error("prune should drop the dead head")
	}
}

// TestPruneRecyclesSquashedTail: a squash's dead suffix leaves the
// window's tail at the next prune and is reusable at once — nothing
// older can reference it — while retired head uops wait for their
// watermark.
func TestPruneRecyclesSquashedTail(t *testing.T) {
	e := newEngine(t)
	var pool Pool
	a, b, c, d := alu(0), alu(1), alu(2), alu(3)
	for _, u := range []*UOp{a, b, c, d} {
		e.Issue(u, 0)
	}
	a.Retired = true
	e.Kill(c)
	e.Kill(d)
	e.PruneRecycle(&pool, d.Seq)
	if e.Len() != 1 || e.At(0) != b {
		t.Fatalf("window holds %d uops after prune, want just b", e.Len())
	}
	if pool.FreeLen() != 2 || pool.PendingLen() != 1 {
		t.Errorf("pool free=%d pending=%d, want the squashed pair free and the retired head pending",
			pool.FreeLen(), pool.PendingLen())
	}
}

func TestDeadProducerTreatedReady(t *testing.T) {
	e := newEngine(t)
	p := alu(0)
	p.Dead = true
	c := alu(1, p)
	e.Issue(c, 0)
	e.Cycle(0)
	if !c.HasResult {
		t.Error("consumer of a dead producer should dispatch (defensive path)")
	}
}
