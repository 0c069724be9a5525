package exec

import (
	"fmt"
	"math/bits"
	"slices"

	"tcsim/internal/cache"
	"tcsim/internal/isa"
)

// Config sizes the backend. Zero values take the paper's configuration.
type Config struct {
	Clusters            int // paper: 4
	FUsPerCluster       int // paper: 4
	RSPerFU             int // paper: 32
	WindowSize          int // in-flight instruction cap
	CrossClusterPenalty int // paper: 1 extra cycle
	IntLatency          int // simple ALU / branch / scaled-add
	MulLatency          int
	DivLatency          int
	AgenLatency         int // address generation before the D-cache access
}

// DefaultConfig is the paper's backend.
func DefaultConfig() Config {
	return Config{
		Clusters:            4,
		FUsPerCluster:       4,
		RSPerFU:             32,
		WindowSize:          512,
		CrossClusterPenalty: 1,
		IntLatency:          1,
		MulLatency:          3,
		DivLatency:          12,
		AgenLatency:         1,
	}
}

func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.Clusters <= 0 {
		c.Clusters = d.Clusters
	}
	if c.FUsPerCluster <= 0 {
		c.FUsPerCluster = d.FUsPerCluster
	}
	if c.RSPerFU <= 0 {
		c.RSPerFU = d.RSPerFU
	}
	if c.WindowSize <= 0 {
		c.WindowSize = d.WindowSize
	}
	if c.CrossClusterPenalty <= 0 {
		c.CrossClusterPenalty = d.CrossClusterPenalty
	}
	if c.IntLatency <= 0 {
		c.IntLatency = d.IntLatency
	}
	if c.MulLatency <= 0 {
		c.MulLatency = d.MulLatency
	}
	if c.DivLatency <= 0 {
		c.DivLatency = d.DivLatency
	}
	if c.AgenLatency <= 0 {
		c.AgenLatency = d.AgenLatency
	}
	return c
}

// MaxRSPerFU is the largest reservation station the engine models, and
// MaxFUs the most functional units: a station's occupied and ready
// slots are each one 64-bit mask, and so is a timing-wheel bucket's set
// of FUs.
const (
	MaxRSPerFU = 64
	MaxFUs     = 64
)

// Validate rejects a configuration the engine cannot model.
func (c Config) Validate() error {
	if c.RSPerFU > MaxRSPerFU {
		return fmt.Errorf("exec: %d reservation-station entries per FU, at most %d supported", c.RSPerFU, MaxRSPerFU)
	}
	if n := c.Clusters * c.FUsPerCluster; n > MaxFUs {
		return fmt.Errorf("exec: %d functional units, at most %d supported", n, MaxFUs)
	}
	return nil
}

// Stats counts backend activity.
type Stats struct {
	Dispatched     uint64
	LoadsForwarded uint64
	LoadsAccessed  uint64
	LoadsBlocked   uint64 // load-cycles spent blocked behind unknown store addresses
}

// Engine is the out-of-order backend: the instruction window, the
// clustered reservation stations and functional units, and the memory
// scheduler.
//
// Per-cycle work scales with the uops that can progress, not with the
// window or the stations. The window is a power-of-two ring buffer in
// fetch order, so head pruning is O(retired). A reservation station is
// a set of fixed slots with an occupancy mask and a ready mask: an
// entry computes its ready time when it is issued or woken, waits in a
// timing wheel until that cycle, and Cycle dispatches, per FU, the
// oldest slot in the ready mask, so select never walks a station. Move
// adoption, branch resolution and inactive-block handling walk short
// fetch-order lists instead of the window.
type Engine struct {
	cfg  Config
	hier *cache.Hierarchy

	buf  []*UOp // power-of-two ring; fetch (Seq) order
	head int
	n    int
	live int // issued, not yet retired or dead

	// rs holds RSPerFU slots per FU (FU f's slot i is rs[f*RSPerFU+i]);
	// occ and ready are per-FU masks of the occupied slots and of those
	// whose ready cycle has come, and readyFUs has bit f set whenever
	// ready[f] may be non-zero. A known entry not yet ready sits in
	// wheel: bucket t&wheelMask holds one mask per FU of the slots ready
	// at cycle t, and busy[t&wheelMask] the FUs it may hold slots of.
	// next is the first cycle whose bucket has not been moved into
	// ready; every wheel entry's ready cycle lies in
	// [next, next+wheelMask].
	rs        []rsEntry
	occ       []uint64
	ready     []uint64
	readyFUs  uint64
	wheel     []uint64
	busy      []uint64
	wheelMask uint64
	next      uint64
	rsNeed    []int // per-FU scratch for RSSpaceFor
	cluster   []int // per-FU cluster

	// Fetch-order lists of the uops a per-cycle pass must visit. An entry
	// goes stale when its uop dies, resolves, activates or adopts a
	// result; walkers skip stale entries, and PruneRecycle purges them
	// before it hands any uop to the pool.
	branches []*UOp // control transfers issued unresolved
	moves    []*UOp // marked moves waiting to adopt their producer's result
	inactive []*UOp // inactive-issued uops
	stale    bool   // a list may hold entries of dead or activated uops
	resolved bool   // branches may hold resolved entries

	stores    []*UOp // live stores in fetch order (compacted each prune)
	waitLoads []*UOp // loads past AGEN waiting on the memory scheduler

	Stats Stats
}

// rsEntry is one reservation-station slot. Its dispatch-ready time is
// computed once, when the last producer the uop waits on has a
// scheduled result. Until then the entry sleeps on the first producer
// found unscheduled (waitOn); the producer wakes it when its result is
// scheduled or it dies.
//
// A known ready time is final: every producer's result time is fixed
// once set, and a consumer never outlives its producer (squashes kill a
// Seq suffix; inactive blocks are discarded whole, and only their own
// younger members consume their results). So computing it at issue or
// wake, rather than at select, changes no dispatch.
type rsEntry struct {
	u       *UOp
	waitOn  *UOp   // producer the entry sleeps on; nil once ready is known
	seq     uint64 // u.Seq: select compares it without touching the uop
	ready   uint64 // dispatch-ready cycle, once known
	delayed bool   // ready includes a cross-cluster bypass delay (Fig 7)
	wait    uint8  // operand index of waitOn
}

// entry returns u's reservation-station slot.
func (e *Engine) entry(u *UOp) *rsEntry {
	return &e.rs[u.FU*e.cfg.RSPerFU+int(u.rsSlot)]
}

// poll advances an entry's readiness: it sleeps on the first producer
// it finds unscheduled or, once every producer it waits on is
// scheduled, computes its ready time and schedules it. Memory
// operations wait only on address operands.
func (e *Engine) poll(u *UOp) {
	r := e.entry(u)
	addrOnly := u.IsMem()
	for k := int(r.wait); k < u.NSrc; k++ {
		if addrOnly && !u.SrcAddr[k] {
			continue
		}
		if p := u.SrcProd[k]; p != nil && !p.HasResult && !p.Dead {
			r.waitOn, r.wait = p, uint8(k)
			u.nextWaiter, p.waiters = p.waiters, u
			return
		}
	}
	r.ready, r.delayed, _ = u.readyAt(u.Cluster, e.cfg.CrossClusterPenalty, addrOnly)
	r.waitOn = nil
	bit := uint64(1) << u.rsSlot
	if r.ready < e.next {
		e.ready[u.FU] |= bit
		e.readyFUs |= 1 << u.FU
		return
	}
	if d := r.ready - e.next; d > e.wheelMask {
		panic(fmt.Sprintf("exec: uop %d ready at cycle %d, %d cycles past the timing wheel's %d-cycle span",
			u.Seq, r.ready, d, e.wheelMask+1))
	}
	b := int(r.ready & e.wheelMask)
	e.wheel[b*len(e.ready)+u.FU] |= bit
	e.busy[b] |= 1 << u.FU
}

// wake polls the entries asleep on p, once p's result is scheduled or p
// has died. Every uop on the list is RS-resident and asleep: a consumer
// leaves the list when woken, and Kill unlinks one that dies asleep.
func (e *Engine) wake(p *UOp) {
	w := p.waiters
	p.waiters = nil
	for w != nil {
		next := w.nextWaiter
		w.nextWaiter = nil
		e.poll(w)
		w = next
	}
}

// unwait takes u off the waiter list of p.
func unwait(p, u *UOp) {
	for l := &p.waiters; *l != nil; l = &(*l).nextWaiter {
		if *l == u {
			*l, u.nextWaiter = u.nextWaiter, nil
			return
		}
	}
}

// advance moves every wheel entry ready before cycle t into the ready
// masks and makes t the next cycle to process. When t is more than the
// wheel's span ahead, every bucket is moved once.
func (e *Engine) advance(t uint64) {
	if t <= e.next {
		return
	}
	c := e.next
	if span := e.wheelMask + 1; t-c > span {
		c = t - span
	}
	nFU := len(e.ready)
	for ; c < t; c++ {
		b := int(c & e.wheelMask)
		for fs := e.busy[b]; fs != 0; fs &= fs - 1 {
			f := bits.TrailingZeros64(fs)
			e.ready[f] |= e.wheel[b*nFU+f]
			e.wheel[b*nFU+f] = 0
		}
		e.readyFUs |= e.busy[b]
		e.busy[b] = 0
	}
	e.next = t
}

// wheelSpan returns the timing wheel's size: a power of two above the
// furthest a ready time can fall past the next unprocessed cycle. A
// result is scheduled at most the longest latency (a load that misses
// to memory, or a divide) after the cycle that schedules it, which is
// the one before next; a consumer may add the cross-cluster bypass and
// a same-group move's rename cycle.
func wheelSpan(cfg Config, p cache.Params) int {
	lat := max(cfg.IntLatency, cfg.MulLatency, cfg.DivLatency, p.L1DLatency+max(p.L2Latency, p.MemLatency))
	span := 1
	for span <= lat+cfg.CrossClusterPenalty {
		span *= 2
	}
	return span
}

// NewEngine builds a backend over the given memory hierarchy.
func NewEngine(cfg Config, hier *cache.Hierarchy) *Engine {
	e := new(Engine)
	e.Reset(cfg, hier)
	return e
}

// Reset re-initializes the engine for a new run over hier, exactly as
// NewEngine builds one, keeping any storage large enough for cfg. The
// caller recycles the uops still in the window first; Reset drops every
// reference to them. It panics on a configuration Validate rejects.
func (e *Engine) Reset(cfg Config, hier *cache.Hierarchy) {
	cfg = cfg.normalize()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ringCap := 64
	for ringCap < 2*cfg.WindowSize {
		ringCap *= 2
	}
	buf := e.buf
	if len(buf) < ringCap {
		buf = make([]*UOp, ringCap)
	} else {
		clear(buf)
	}
	nFU := cfg.Clusters * cfg.FUsPerCluster
	span := wheelSpan(cfg, hier.P)
	*e = Engine{
		cfg:       cfg,
		hier:      hier,
		buf:       buf,
		rs:        zeroed(e.rs, nFU*cfg.RSPerFU),
		occ:       zeroed(e.occ, nFU),
		ready:     zeroed(e.ready, nFU),
		wheel:     zeroed(e.wheel, span*nFU),
		busy:      zeroed(e.busy, span),
		wheelMask: uint64(span - 1),
		rsNeed:    zeroed(e.rsNeed, nFU),
		cluster:   zeroed(e.cluster, nFU),
		branches:  emptied(e.branches),
		moves:     emptied(e.moves),
		inactive:  emptied(e.inactive),
		stores:    emptied(e.stores),
		waitLoads: emptied(e.waitLoads),
	}
	for f := range e.cluster {
		e.cluster[f] = f / cfg.FUsPerCluster
	}
}

// zeroed returns s cut to length n with every element zero, allocating
// only when its capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// emptied returns s with its elements cleared and its length zero.
func emptied(s []*UOp) []*UOp {
	clear(s)
	return s[:0]
}

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// FUs returns the number of functional units (= issue slots).
func (e *Engine) FUs() int { return e.cfg.Clusters * e.cfg.FUsPerCluster }

// Len reports the window occupancy including not-yet-pruned retired and
// dead entries.
func (e *Engine) Len() int { return e.n }

// Live reports the issued uops that have neither retired nor died.
func (e *Engine) Live() int { return e.live }

// At returns the i-th window entry in fetch order (0 = oldest).
func (e *Engine) At(i int) *UOp { return e.buf[(e.head+i)&(len(e.buf)-1)] }

func (e *Engine) push(u *UOp) {
	if e.n == len(e.buf) {
		nb := make([]*UOp, 2*len(e.buf))
		mask := len(e.buf) - 1
		for i := 0; i < e.n; i++ {
			nb[i] = e.buf[(e.head+i)&mask]
		}
		e.buf = nb
		e.head = 0
	}
	e.buf[(e.head+e.n)&(len(e.buf)-1)] = u
	e.n++
}

// WindowSpace reports how many more uops fit in the window.
func (e *Engine) WindowSpace() int { return e.cfg.WindowSize - e.live }

// RSSpaceFor reports whether the reservation stations can absorb a group
// of uops destined for the given FU slots.
func (e *Engine) RSSpaceFor(slots []int) bool {
	for _, s := range slots {
		e.rsNeed[s]++
	}
	ok := true
	for _, s := range slots {
		if bits.OnesCount64(e.occ[s])+e.rsNeed[s] > e.cfg.RSPerFU {
			ok = false
			break
		}
	}
	for _, s := range slots {
		e.rsNeed[s] = 0
	}
	return ok
}

// Issue adds a renamed uop to the window (and its FU's reservation
// station when it needs one). The caller has already checked space.
func (e *Engine) Issue(u *UOp, cycle uint64) {
	u.IssueCycle = cycle
	u.Cluster = e.cluster[u.FU]
	switch {
	case u.MoveBit:
		// Executes in rename; result adopted from the producer.
		u.State = StateInRS // no RS entry; tracked for adoption
		e.tryAdoptMove(u)
		if !u.HasResult {
			e.moves = append(e.moves, u)
		}
	case !u.NeedsFU():
		u.State = StateComplete
		u.Resolved = true // direct jumps never mispredict
		u.HasResult = true
		u.ResultTime = cycle
		u.ResultCluster = GlobalCluster
	default:
		u.State = StateInRS
		u.InRS = true
		e.advance(cycle)
		f := u.FU
		i := bits.TrailingZeros64(^e.occ[f])
		if i >= e.cfg.RSPerFU {
			panic(fmt.Sprintf("exec: uop %d issued to FU %d's full reservation station", u.Seq, f))
		}
		e.occ[f] |= 1 << i
		u.rsSlot = uint8(i)
		*e.entry(u) = rsEntry{u: u, seq: u.Seq}
		e.poll(u)
	}
	e.live++
	if u.IsBranch && !u.Resolved {
		e.branches = append(e.branches, u)
	}
	if u.Inactive {
		e.inactive = append(e.inactive, u)
	}
	if u.IsStore() {
		e.stores = append(e.stores, u)
	}
	e.push(u)
}

// tryAdoptMove completes a rename-executed move once its producer has a
// scheduled result: the move shares the producer's tag, so its value
// appears exactly when (and where) the producer's does.
func (e *Engine) tryAdoptMove(u *UOp) {
	if u.HasResult {
		return
	}
	if u.NSrc == 0 || u.SrcProd[0] == nil || u.SrcProd[0].Dead {
		u.HasResult = true
		u.ResultTime = u.IssueCycle
		u.ResultCluster = GlobalCluster
		u.State = StateComplete
		e.wake(u)
		return
	}
	p := u.SrcProd[0]
	if p.HasResult {
		u.HasResult = true
		u.ResultTime = p.ResultTime
		if u.ResultTime < u.IssueCycle {
			u.ResultTime = u.IssueCycle
		}
		u.ResultCluster = p.ResultCluster
		u.State = StateComplete
		e.wake(u)
	}
}

// latency returns the execution latency of a non-memory operation.
func (e *Engine) latency(op isa.Op) int {
	switch op {
	case isa.MUL:
		return e.cfg.MulLatency
	case isa.DIV:
		return e.cfg.DivLatency
	default:
		return e.cfg.IntLatency
	}
}

// Cycle advances the backend one cycle: dispatches ready uops (one per
// FU, oldest first), adopts move results, computes store data
// availability, and runs the memory scheduler.
//
// Selecting per FU picks exactly the uops a fetch-order scan of the
// whole window would: every latency is at least one cycle, so nothing
// dispatched this cycle can make another uop ready this cycle, and the
// order in which FUs are served does not matter. The ready mask holds
// exactly the entries whose operands are all scheduled and whose ready
// cycle is at most c, so its lowest Seq is the scan's first hit.
func (e *Engine) Cycle(c uint64) {
	e.advance(c + 1)
	for fs := e.readyFUs; fs != 0; fs &= fs - 1 {
		f := bits.TrailingZeros64(fs)
		m := e.ready[f]
		if m == 0 {
			e.readyFUs &^= 1 << f
			continue
		}
		q := e.rs[f*e.cfg.RSPerFU:]
		i := bits.TrailingZeros64(m)
		for m &= m - 1; m != 0; m &= m - 1 {
			if j := bits.TrailingZeros64(m); q[j].seq < q[i].seq {
				i = j
			}
		}
		u, delayed := q[i].u, q[i].delayed
		e.release(f, i)
		e.dispatch(u, delayed, c)
	}

	// Move adoption after dispatch: a move whose producer scheduled this
	// cycle adopts the producer's result timing immediately. Fetch order
	// lets a move of a move adopt in the same pass.
	if len(e.moves) > 0 {
		kept := e.moves[:0]
		for _, u := range e.moves {
			if u.Dead {
				continue
			}
			e.tryAdoptMove(u)
			if !u.HasResult {
				kept = append(kept, u)
			}
		}
		clear(e.moves[len(kept):])
		e.moves = kept
	}

	// Store data availability (data operands need not be ready at AGEN).
	for _, u := range e.stores {
		if u.Dead || u.Retired || !u.AddrKnown || u.State == StateComplete {
			continue
		}
		t, ok := e.storeDataAvail(u)
		if ok && t <= c {
			u.DataAvail = t
			u.State = StateComplete
		}
	}

	e.memSchedule(c)
}

// release frees slot i of FU f's reservation station. The entry has
// left the wheel: it was dispatched from the ready mask, or Kill took
// it out.
func (e *Engine) release(f, i int) {
	bit := uint64(1) << i
	e.occ[f] &^= bit
	e.ready[f] &^= bit
	e.rs[f*e.cfg.RSPerFU+i] = rsEntry{}
}

// dispatch sends a uop that has left its reservation station to its FU.
func (e *Engine) dispatch(u *UOp, delayed bool, c uint64) {
	u.InRS = false
	u.DispatchCycle = c
	u.BypassDelayed = delayed
	u.HadOperands = u.NSrc > 0
	e.Stats.Dispatched++

	switch {
	case u.IsMem():
		u.AddrTime = c + uint64(e.cfg.AgenLatency)
		u.AddrKnown = true
		if u.IsLoad() {
			u.State = StateWaitMem
			// Keep the wait list in Seq order (loads dispatch out of
			// order): the memory scheduler must touch the data cache
			// oldest-load-first or same-cycle LRU updates and
			// allocations reorder and later misses shift.
			e.waitLoads = append(e.waitLoads, u)
			for j := len(e.waitLoads) - 1; j > 0 && e.waitLoads[j-1].Seq > u.Seq; j-- {
				e.waitLoads[j-1], e.waitLoads[j] = e.waitLoads[j], e.waitLoads[j-1]
			}
		} else {
			u.State = StateExecuting // store: waits for data
		}
	default:
		u.HasResult = true
		u.ResultTime = c + uint64(e.latency(u.Inst.Op))
		u.ResultCluster = u.Cluster
		u.State = StateComplete
		e.wake(u)
	}
}

// storeDataAvail returns when the store's data operands are available in
// its cluster.
func (e *Engine) storeDataAvail(u *UOp) (uint64, bool) {
	t := u.AddrTime
	for k := 0; k < u.NSrc; k++ {
		if u.SrcAddr[k] {
			continue
		}
		a, ok := u.operandAvail(k, u.Cluster, e.cfg.CrossClusterPenalty)
		if !ok {
			return 0, false
		}
		if a > t {
			t = a
		}
	}
	return t, true
}

// memSchedule implements the paper's memory scheduler: it "waits for
// addresses to be generated before scheduling memory operations", and
// "no memory operation can bypass a store with an unknown address".
// Loads with a known address either forward from the youngest older
// store to the same word (once its data is ready) or access the data
// cache.
//
// Rather than rescanning the whole window, the scheduler walks the live
// store list (fetch order) once to find the oldest store whose address
// is still unknown, then serves each waiting load against that bound.
func (e *Engine) memSchedule(c uint64) {
	if len(e.waitLoads) == 0 {
		return
	}
	minUnknown := ^uint64(0)
	for _, s := range e.stores {
		if s.Dead || s.Retired {
			continue
		}
		if !s.AddrKnown || s.AddrTime > c {
			minUnknown = s.Seq
			break // stores are in Seq order: the first unknown is the oldest
		}
	}
	kept := e.waitLoads[:0]
	for _, u := range e.waitLoads {
		if u.Dead || u.State != StateWaitMem {
			continue // completed or squashed: drop from the wait list
		}
		if u.AddrTime > c {
			kept = append(kept, u)
			continue
		}
		if minUnknown < u.Seq {
			e.Stats.LoadsBlocked++
			kept = append(kept, u)
			continue
		}
		var match *UOp
		for _, s := range e.stores {
			if s.Seq >= u.Seq {
				break
			}
			if s.Dead || s.Retired {
				continue
			}
			if s.EA>>2 == u.EA>>2 {
				match = s // youngest older matching store wins
			}
		}
		if match != nil {
			// Forward once the store's data is ready.
			t, ok := e.storeDataAvail(match)
			if !ok || t > c {
				kept = append(kept, u)
				continue
			}
			u.HasResult = true
			u.ResultTime = c + 1
			u.ResultCluster = u.Cluster
			u.State = StateComplete
			e.wake(u)
			e.Stats.LoadsForwarded++
			continue
		}
		// Access the hierarchy. Wrong-path loads consume scheduler slots
		// but are not allowed to pollute the caches: their synthetic
		// addresses would displace real working-set lines.
		lat := e.hier.P.L1DLatency
		if u.OnPath {
			lat = e.hier.DataAccess(u.EA, false)
		}
		u.HasResult = true
		u.ResultTime = c + uint64(lat)
		u.ResultCluster = u.Cluster
		u.State = StateComplete
		e.wake(u)
		e.Stats.LoadsAccessed++
	}
	for i := len(kept); i < len(e.waitLoads); i++ {
		e.waitLoads[i] = nil
	}
	e.waitLoads = kept
}

// CompletedBy reports whether the uop has finished all execution it owes
// by cycle c (the retirement condition, alongside program order).
func (u *UOp) CompletedBy(c uint64) bool {
	if u.IsStore() {
		return u.State == StateComplete && u.AddrTime <= c && u.DataAvail <= c
	}
	if u.MoveBit {
		return u.HasResult && u.ResultTime <= c
	}
	return u.State == StateComplete && (!u.HasResult || u.ResultTime <= c)
}

// RetireStore performs the store's architectural cache write (stores
// update the data cache at retirement, in order).
func (e *Engine) RetireStore(u *UOp) {
	if u.OnPath {
		e.hier.DataAccess(u.EA, true)
	}
}

// MarkRetired commits a uop: the caller (the pipeline's in-order retire
// stage) has verified completion. Occupancy is tracked here so
// WindowSpace stays O(1).
func (e *Engine) MarkRetired(u *UOp) {
	if u.Retired || u.Dead {
		return
	}
	u.Retired = true
	e.live--
}

// MarkResolved records that a branch finished execution and its
// direction is known.
func (e *Engine) MarkResolved(u *UOp) {
	if !u.Resolved {
		u.Resolved = true
		e.resolved = true
	}
}

// MarkActivated flips an inactive-issued uop to active (recovery found
// it on the actual path).
func (e *Engine) MarkActivated(u *UOp) {
	if u.Inactive {
		u.Inactive = false
		e.stale = true
	}
}

// Branches returns the control transfers issued unresolved, in fetch
// order. Entries that died or resolved since the last prune are still
// present; callers skip them. The slice is the engine's own: Kill,
// MarkResolved and MarkActivated leave it intact, Issue and
// PruneRecycle do not.
func (e *Engine) Branches() []*UOp { return e.branches }

// Inactive returns the inactive-issued uops in fetch order, under the
// same rules as Branches (entries that died or activated since the
// last prune are still present).
func (e *Engine) Inactive() []*UOp { return e.inactive }

// PruneRecycle drops retired and dead uops from the head of the window,
// handing them to the pool (when non-nil) for deferred reuse; watermark
// must be the highest issued sequence number. It also drops the dead
// suffix a squash leaves at the tail, for immediate reuse: a uop is only
// ever referenced by younger uops, and every uop younger than a dead
// tail entry is dead too. It first purges stale entries from every list
// so no list pointer survives into a reclaimed uop's next life.
func (e *Engine) PruneRecycle(pool *Pool, watermark uint64) {
	e.purgeLists()
	mask := len(e.buf) - 1
	for e.n > 0 {
		u := e.buf[e.head]
		if !u.Retired && !u.Dead {
			break
		}
		e.buf[e.head] = nil
		e.head = (e.head + 1) & mask
		e.n--
		if pool != nil {
			pool.Defer(u, watermark)
		}
	}
	for e.n > 0 {
		i := (e.head + e.n - 1) & mask
		u := e.buf[i]
		if !u.Dead {
			break
		}
		e.buf[i] = nil
		e.n--
		if pool != nil {
			pool.Put(u)
		}
	}
}

// purgeLists drops stale entries from every list. Kill and
// MarkActivated flag a full purge, MarkResolved one of the branch list.
// Otherwise only retirement makes entries stale outside the walks that
// compact their own lists (memSchedule, move adoption), and stores
// retire in order: retired ones leave from the head.
func (e *Engine) purgeLists() {
	if e.stale || e.resolved {
		e.branches = slices.DeleteFunc(e.branches, func(u *UOp) bool { return u.Dead || u.Resolved })
		e.resolved = false
	}
	if e.stale {
		e.stores = slices.DeleteFunc(e.stores, func(u *UOp) bool { return u.Dead || u.Retired })
		e.waitLoads = slices.DeleteFunc(e.waitLoads, func(u *UOp) bool { return u.Dead })
		e.moves = slices.DeleteFunc(e.moves, func(u *UOp) bool { return u.Dead })
		e.inactive = slices.DeleteFunc(e.inactive, func(u *UOp) bool { return u.Dead || !u.Inactive })
		e.stale = false
		return
	}
	i := 0
	for i < len(e.stores) && e.stores[i].Retired {
		i++
	}
	if i > 0 {
		e.stores = slices.Delete(e.stores, 0, i)
	}
}

// Kill marks a uop dead, releases its reservation-station entry, and
// wakes the entries asleep on it.
func (e *Engine) Kill(u *UOp) {
	if u.Dead || u.Retired {
		return
	}
	u.Dead = true
	e.live--
	e.stale = true
	if u.InRS {
		u.InRS = false
		r := e.entry(u)
		if r.waitOn != nil {
			unwait(r.waitOn, u)
		} else {
			e.wheel[int(r.ready&e.wheelMask)*len(e.ready)+u.FU] &^= 1 << u.rsSlot
		}
		e.release(u.FU, int(u.rsSlot))
	}
	e.wake(u)
}

// RSOccupancy returns the occupied entry count for a FU (test hook).
func (e *Engine) RSOccupancy(fu int) int { return bits.OnesCount64(e.occ[fu]) }
