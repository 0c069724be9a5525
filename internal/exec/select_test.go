package exec

import (
	"math/rand"
	"testing"

	"tcsim/internal/isa"
)

// scanSelect is the reference select: it scans each FU's
// reservation-station entries in fetch order and calls readyAt at
// select time, taking the first entry whose operands are all scheduled
// and whose ready cycle is at most c. It returns the pick per FU (nil
// where none is ready) and whether each pick's ready cycle includes a
// cross-cluster bypass delay.
func scanSelect(stations [][]*UOp, c uint64, penalty int) ([]*UOp, []bool) {
	picks := make([]*UOp, len(stations))
	delayed := make([]bool, len(stations))
	for f, q := range stations {
		for _, u := range q {
			if t, d, ok := u.readyAt(u.Cluster, penalty, u.IsMem()); ok && t <= c {
				picks[f], delayed[f] = u, d
				break
			}
		}
	}
	return picks, delayed
}

// TestSelectMatchesFetchOrderScan drives the engine with a seeded random
// stream of issues (ALU, MUL/DIV, loads and stores waiting on address
// operands only, marked moves), squashes of a Seq suffix, producers that
// die unscheduled, retirement and cycles, and checks every cycle's
// dispatches — which uops, in which cycle, and their BypassDelayed flag
// — against scanSelect over the same machine state.
//
// A producer dies here only before its result is scheduled, as in the
// pipeline: a consumer never outlives a producer that has a result
// (squashes kill a Seq suffix), which is what makes a ready time final.
func TestSelectMatchesFetchOrderScan(t *testing.T) {
	var total Stats
	var delayed, deaths uint64
	for seed := int64(1); seed <= 6; seed++ {
		s, d, k := selectDifferential(t, seed, 3000)
		total.Dispatched += s.Dispatched
		total.LoadsForwarded += s.LoadsForwarded
		total.LoadsBlocked += s.LoadsBlocked
		delayed += d
		deaths += k
	}
	// Guard against a vacuous stream: every path the select depends on
	// must have been exercised.
	if total.Dispatched < 10000 || total.LoadsForwarded == 0 || total.LoadsBlocked == 0 || delayed == 0 || deaths == 0 {
		t.Errorf("stream too thin: %d dispatched, %d forwarded, %d blocked load-cycles, %d bypass-delayed, %d producer deaths",
			total.Dispatched, total.LoadsForwarded, total.LoadsBlocked, delayed, deaths)
	}
}

func selectDifferential(t *testing.T, seed int64, cycles uint64) (Stats, uint64, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := newEngine(t)
	penalty := e.Config().CrossClusterPenalty
	stations := make([][]*UOp, e.FUs())
	var producers []*UOp // recent uops that produce a register result
	var seq, delayed, deaths uint64

	drop := func(u *UOp) {
		q := stations[u.FU]
		for i, w := range q {
			if w == u {
				stations[u.FU] = append(q[:i], q[i+1:]...)
				return
			}
		}
	}
	kill := func(u *UOp) {
		if u.InRS {
			drop(u)
		}
		e.Kill(u)
	}
	operand := func() *UOp {
		if len(producers) == 0 || rng.Intn(5) == 0 {
			return nil // architecturally ready
		}
		return producers[len(producers)-1-rng.Intn(min(len(producers), 24))]
	}

	for c := uint64(0); c < cycles; c++ {
		// Squash a Seq suffix, youngest first.
		if e.Len() > 0 && rng.Intn(40) == 0 {
			keep := e.At(rng.Intn(e.Len())).Seq
			for i := e.Len() - 1; i >= 0; i-- {
				if u := e.At(i); u.Seq > keep && !u.Dead && !u.Retired {
					kill(u)
				}
			}
		}
		// Kill an unscheduled producer; its consumers live on.
		if e.Len() > 0 && rng.Intn(8) == 0 {
			if u := e.At(rng.Intn(e.Len())); !u.Dead && !u.Retired && !u.HasResult && !u.IsStore() && !u.MoveBit {
				kill(u)
				deaths++
			}
		}

		// Retire in order.
		for n := 0; n < e.Len() && n < 16; n++ {
			u := e.At(n)
			if u.Dead || u.Retired {
				continue
			}
			if !u.CompletedBy(c) {
				break
			}
			e.MarkRetired(u)
		}

		picks, want := scanSelect(stations, c, penalty)
		e.Cycle(c)
		for f, q := range stations {
			var got *UOp
			for _, u := range q {
				if !u.InRS {
					if got != nil {
						t.Fatalf("seed %d cycle %d: FU %d dispatched uops %d and %d", seed, c, f, got.Seq, u.Seq)
					}
					got = u
				}
			}
			if got != picks[f] {
				t.Fatalf("seed %d cycle %d: FU %d dispatched %v, fetch-order scan picks %v", seed, c, f, seqOf(got), seqOf(picks[f]))
			}
			if got == nil {
				continue
			}
			if got.DispatchCycle != c || got.BypassDelayed != want[f] {
				t.Fatalf("seed %d cycle %d: uop %d dispatched at %d with BypassDelayed=%v, scan says %d and %v",
					seed, c, got.Seq, got.DispatchCycle, got.BypassDelayed, c, want[f])
			}
			if got.BypassDelayed {
				delayed++
			}
			drop(got)
		}

		// Issue a group of up to eight uops.
		for n := rng.Intn(9); n > 0 && e.WindowSpace() > 0; n-- {
			seq++
			u := &UOp{Seq: seq, FU: rng.Intn(e.FUs()), OnPath: rng.Intn(5) != 0}
			switch k := rng.Intn(20); {
			case k < 9:
				u.Inst.Op = isa.ADD
			case k < 11:
				u.Inst.Op = isa.MUL
			case k < 12:
				u.Inst.Op = isa.DIV
			case k < 15:
				u.Inst.Op = isa.LW
			case k < 17:
				u.Inst.Op = isa.SW
			case k < 19:
				u.Inst.Op = isa.ADDI
				u.MoveBit = true
			default:
				u.Inst.Op = isa.JAL // result known at issue
			}
			u.Orig = u.Inst
			switch {
			case u.IsMem():
				u.EA = 0x1000 + 4*uint32(rng.Intn(24))
				u.NSrc = 1 + rng.Intn(2)
				u.SrcAddr[0] = true
				u.SrcAddr[1] = u.IsLoad() // indexed load: two address operands; store: data
			case u.MoveBit:
				u.NSrc = 1
			case u.Inst.Op != isa.JAL:
				u.NSrc = 1 + rng.Intn(2)
			}
			for k := 0; k < u.NSrc; k++ {
				u.SrcProd[k] = operand()
				if rng.Intn(10) == 0 {
					u.SrcDelay[k] = 1 // a same-group move's rename cycle
				}
			}
			if u.NeedsFU() && !e.RSSpaceFor([]int{u.FU}) {
				seq--
				continue
			}
			e.Issue(u, c)
			if u.InRS {
				stations[u.FU] = append(stations[u.FU], u)
			}
			if !u.IsStore() {
				producers = append(producers, u)
			}
		}
		e.PruneRecycle(nil, 0)
	}
	return e.Stats, delayed, deaths
}

func seqOf(u *UOp) any {
	if u == nil {
		return "none"
	}
	return u.Seq
}
