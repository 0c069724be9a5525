package pipeline

import (
	"math/rand"
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/core"
	"tcsim/internal/emu"
	"tcsim/internal/isa"
	"tcsim/internal/workload"
)

// buildProgram assembles a test program.
func buildProgram(t *testing.T, build func(*asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	build(b)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runSim simulates the program and cross-checks retirement count against
// a straight functional run.
func runSim(t *testing.T, cfg Config, p *asm.Program) Stats {
	t.Helper()
	sim, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxInsts == 0 {
		m := emu.New(p)
		steps, err := m.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if st.Retired != steps {
			t.Fatalf("retired %d instructions, functional run has %d", st.Retired, steps)
		}
		if string(sim.Output()) != string(m.Output) {
			t.Fatalf("output %q != functional %q", sim.Output(), m.Output)
		}
	}
	return st
}

func simpleLoop(n int32) func(*asm.Builder) {
	return func(b *asm.Builder) {
		b.Li(isa.T0, n)
		b.Label("loop")
		b.Addi(isa.T1, isa.T1, 1)
		b.Addi(isa.T0, isa.T0, -1)
		b.Bgtz(isa.T0, "loop")
		b.Halt()
	}
}

func TestStraightLineProgram(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		for i := 0; i < 50; i++ {
			b.Addi(isa.T0, isa.T0, 1)
		}
		b.Halt()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.Retired != 51 {
		t.Errorf("retired = %d", st.Retired)
	}
	if st.IPC <= 0 {
		t.Error("IPC should be positive")
	}
}

func TestSimpleLoopCompletes(t *testing.T) {
	st := runSim(t, DefaultConfig(), buildProgram(t, simpleLoop(500)))
	if st.Retired != 2+500*3 {
		t.Errorf("retired = %d", st.Retired)
	}
	// The loop branch trains quickly; mispredict rate should be low.
	if st.MispredictRate > 0.2 {
		t.Errorf("mispredict rate = %f", st.MispredictRate)
	}
	// The trace cache should be supplying instructions after warmup.
	if st.TCHits == 0 {
		t.Error("trace cache never hit")
	}
}

func TestIPCReasonableOnIndependentOps(t *testing.T) {
	// Many independent instructions: the 16-wide machine should sustain
	// IPC well above 1 once the trace cache warms.
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 300)
		b.Label("loop")
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T1, isa.T1, 1)
		b.Addi(isa.T2, isa.T2, 1)
		b.Addi(isa.T3, isa.T3, 1)
		b.Addi(isa.T4, isa.T4, 1)
		b.Addi(isa.T5, isa.T5, 1)
		b.Addi(isa.T6, isa.T6, 1)
		b.Addi(isa.T7, isa.T7, 1)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.IPC < 2.0 {
		t.Errorf("IPC = %f; expected >2 for independent ops", st.IPC)
	}
}

func TestSerialDependenceChainLimitsIPC(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 300)
		b.Label("loop")
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.IPC > 2.0 {
		t.Errorf("IPC = %f; serial chain should be slow", st.IPC)
	}
}

func TestCallsAndReturns(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 100)
		b.Label("loop")
		b.Jal("fn")
		b.Add(isa.S1, isa.S1, isa.V0)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
		b.Label("fn")
		b.Li(isa.V0, 3)
		b.Ret()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.IndirectRetired != 100 {
		t.Errorf("returns retired = %d", st.IndirectRetired)
	}
	// The RAS should predict returns nearly perfectly.
	if st.IndirectMispred > 5 {
		t.Errorf("indirect mispredicts = %d", st.IndirectMispred)
	}
}

func TestIndirectDispatchLoop(t *testing.T) {
	// Interpreter-style computed jumps through a table.
	p := buildProgram(t, func(b *asm.Builder) {
		b.DataLabel("table")
		b.Word(0, 0, 0, 0)
		b.Li(isa.S0, 200)
		b.La(isa.T8, "case0")
		b.Sw(isa.T8, isa.GP, 0)
		b.La(isa.T8, "case1")
		b.Sw(isa.T8, isa.GP, 4)
		b.Label("loop")
		b.Andi(isa.T0, isa.S0, 1)
		b.Slli(isa.T0, isa.T0, 2)
		b.Lwx(isa.T1, isa.GP, isa.T0)
		b.Jr(isa.T1)
		b.Label("case0")
		b.Addi(isa.S1, isa.S1, 1)
		b.B("join")
		b.Label("case1")
		b.Addi(isa.S2, isa.S2, 2)
		b.Label("join")
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.Retired == 0 {
		t.Fatal("nothing retired")
	}
	if st.IndirectRetired < 200 {
		t.Errorf("indirect retired = %d", st.IndirectRetired)
	}
}

func TestDataDependentBranches(t *testing.T) {
	// Branches on pseudo-random data: exercises mispredict recovery.
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 400)
		b.Li(isa.S1, 12345)
		b.Label("loop")
		// LCG step: s1 = s1*1103515245 + 12345 (truncated constants).
		b.Li(isa.T0, 20077)
		b.Mul(isa.S1, isa.S1, isa.T0)
		b.Addi(isa.S1, isa.S1, 12345)
		b.Andi(isa.T1, isa.S1, 4)
		b.Beq(isa.T1, isa.R0, "even")
		b.Addi(isa.S2, isa.S2, 1)
		b.B("next")
		b.Label("even")
		b.Addi(isa.S3, isa.S3, 1)
		b.Label("next")
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.Mispredicts == 0 {
		t.Error("random branches should mispredict sometimes")
	}
}

func TestMemoryTraffic(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.DataLabel("arr")
		b.Space(4096)
		b.Li(isa.S0, 256)
		b.Move(isa.S1, isa.GP)
		b.Label("loop")
		b.Lw(isa.T0, isa.S1, 0)
		b.Addi(isa.T0, isa.T0, 1)
		b.Sw(isa.T0, isa.S1, 0)
		b.Addi(isa.S1, isa.S1, 4)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	st := runSim(t, DefaultConfig(), p)
	if st.DL1Hits+st.DL1Misses == 0 {
		t.Error("no data cache traffic")
	}
	if st.DL1Misses == 0 {
		t.Error("cold array walk should miss")
	}
}

func TestStoreLoadForwardingProgram(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.DataLabel("x")
		b.Word(0)
		b.Li(isa.S0, 100)
		b.Label("loop")
		b.Sw(isa.S0, isa.GP, 0)
		b.Lw(isa.T0, isa.GP, 0) // immediately reloads: forwarding path
		b.Add(isa.S1, isa.S1, isa.T0)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	runSim(t, DefaultConfig(), p)
}

func TestOutProgram(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		for _, ch := range "hi!" {
			b.Li(isa.A0, int32(ch))
			b.Out(isa.A0)
		}
		b.Halt()
	})
	sim, err := New(DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if string(sim.Output()) != "hi!" {
		t.Errorf("output = %q", sim.Output())
	}
}

func TestMaxInstsBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 100
	p := buildProgram(t, simpleLoop(100000))
	sim, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retired != 100 {
		t.Errorf("retired = %d, want exactly the bound", st.Retired)
	}
}

func TestNonHaltingProgramErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 5000
	p := buildProgram(t, func(b *asm.Builder) {
		b.Label("spin")
		b.B("spin")
	})
	sim, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("expected a max-cycles error")
	}
}

// optimization configs used across effectiveness tests.
func cfgWith(o core.Optimizations) Config {
	cfg := DefaultConfig()
	cfg.Fill.Opt = o
	return cfg
}

func TestMovesImproveMoveHeavyLoop(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 400)
		b.Label("loop")
		b.Move(isa.T0, isa.S1)
		b.Move(isa.T1, isa.T0)
		b.Move(isa.T2, isa.T1)
		b.Addi(isa.T3, isa.T2, 1)
		b.Move(isa.S1, isa.T3)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	base := runSim(t, DefaultConfig(), p)
	opt := runSim(t, cfgWith(core.Optimizations{Moves: true}), p)
	if opt.RetiredMoves == 0 {
		t.Fatal("no moves marked at retirement")
	}
	if opt.IPC <= base.IPC {
		t.Errorf("move optimization did not help: base %f, opt %f", base.IPC, opt.IPC)
	}
}

func TestScaledAddsImproveArrayLoop(t *testing.T) {
	p := buildProgram(t, func(b *asm.Builder) {
		b.DataLabel("arr")
		for i := 0; i < 128; i++ {
			b.Word(int32(i))
		}
		b.Li(isa.S0, 300)
		b.Label("loop")
		b.Andi(isa.T0, isa.S0, 127-(127%4)) // index
		b.Slli(isa.T1, isa.T0, 2)
		b.Lwx(isa.T2, isa.GP, isa.T1)
		b.Add(isa.S1, isa.S1, isa.T2)
		b.Slli(isa.T3, isa.S1, 1)
		b.Add(isa.S2, isa.T3, isa.S0)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	base := runSim(t, DefaultConfig(), p)
	opt := runSim(t, cfgWith(core.Optimizations{ScaledAdds: true}), p)
	if opt.RetiredScaled == 0 {
		t.Fatal("no scaled ops at retirement")
	}
	if opt.IPC < base.IPC*0.98 {
		t.Errorf("scaled adds regressed IPC: base %f, opt %f", base.IPC, opt.IPC)
	}
}

func TestCombinedOptimizationsNeverBreakPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		p := buildProgram(t, randomPipelineProgram(rng))
		base := runSim(t, DefaultConfig(), p)
		cfg := DefaultConfig()
		cfg.Fill.Opt = core.AllOptimizations()
		opt := runSim(t, cfg, p)
		if base.Retired != opt.Retired {
			t.Fatalf("retirement counts differ: %d vs %d", base.Retired, opt.Retired)
		}
	}
}

// randomPipelineProgram builds a looping random program with data-driven
// branches, calls and memory traffic.
func randomPipelineProgram(rng *rand.Rand) func(*asm.Builder) {
	iters := int32(100 + rng.Intn(200))
	nblk := 3 + rng.Intn(4)
	return func(b *asm.Builder) {
		b.DataLabel("buf")
		for i := 0; i < 64; i++ {
			b.Word(rng.Int31n(1000))
		}
		regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.S1, isa.S2, isa.S3}
		rr := func() isa.Reg { return regs[rng.Intn(len(regs))] }
		b.Li(isa.S0, iters)
		b.Label("loop")
		for blk := 0; blk < nblk; blk++ {
			for j := 0; j < 2+rng.Intn(6); j++ {
				switch rng.Intn(10) {
				case 0:
					b.Addi(rr(), rr(), rng.Int31n(100))
				case 1:
					b.Add(rr(), rr(), rr())
				case 2:
					b.Move(rr(), rr())
				case 3:
					b.Slli(rr(), rr(), 1+rng.Int31n(3))
				case 4:
					b.Lw(rr(), isa.GP, rng.Int31n(60)*4)
				case 5:
					b.Sw(rr(), isa.GP, rng.Int31n(60)*4)
				case 6:
					r := rr()
					b.Addi(r, rr(), rng.Int31n(32))
					b.Addi(rr(), r, rng.Int31n(32))
				case 7:
					b.Mul(rr(), rr(), rr())
				case 8:
					b.Xor(rr(), rr(), rr())
				case 9:
					idx := rr()
					b.Andi(idx, idx, 0xFC)
					b.Lwx(rr(), isa.GP, idx)
				}
			}
			lbl := "skip" + string(rune('a'+blk))
			switch rng.Intn(3) {
			case 0:
				b.Bgtz(rr(), lbl)
			case 1:
				b.Bltz(rr(), lbl)
			case 2:
				b.Beq(rr(), rr(), lbl)
			}
			b.Addi(rr(), rr(), 1)
			b.Label(lbl)
		}
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	}
}

func TestInactiveIssueRecoversFaster(t *testing.T) {
	// Alternating branch: mispredicts often; inactive issue should keep
	// useful instructions across mispredictions.
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 600)
		b.Label("loop")
		b.Andi(isa.T0, isa.S0, 1)
		b.Beq(isa.T0, isa.R0, "even")
		b.Addi(isa.S1, isa.S1, 1)
		b.Addi(isa.S1, isa.S1, 1)
		b.B("next")
		b.Label("even")
		b.Addi(isa.S2, isa.S2, 1)
		b.Addi(isa.S2, isa.S2, 1)
		b.Label("next")
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	on := runSim(t, DefaultConfig(), p)
	cfg := DefaultConfig()
	cfg.InactiveIssue = false
	off := runSim(t, cfg, p)
	if on.InactiveKept == 0 {
		t.Error("inactive issue never activated instructions")
	}
	if on.IPC < off.IPC*0.95 {
		t.Errorf("inactive issue hurt: on %f, off %f", on.IPC, off.IPC)
	}
}

func TestNoTraceCacheAblation(t *testing.T) {
	// A loop whose body spans four blocks joined by taken jumps: the
	// instruction-cache path fetches one block per cycle (it stops at
	// every taken control transfer) while the trace cache delivers the
	// whole body in one line. The work inside is parallel, so fetch
	// bandwidth is the bottleneck.
	p := buildProgram(t, func(b *asm.Builder) {
		b.Li(isa.S0, 400)
		b.Label("loop")
		b.Addi(isa.T0, isa.T0, 1)
		b.Addi(isa.T1, isa.T1, 1)
		b.Addi(isa.T2, isa.T2, 1)
		b.J("blk2")
		b.Label("blk2")
		b.Addi(isa.T3, isa.T3, 1)
		b.Addi(isa.T4, isa.T4, 1)
		b.Addi(isa.T5, isa.T5, 1)
		b.J("blk3")
		b.Label("blk3")
		b.Addi(isa.T6, isa.T6, 1)
		b.Addi(isa.T7, isa.T7, 1)
		b.Addi(isa.S1, isa.S1, 1)
		b.J("blk4")
		b.Label("blk4")
		b.Addi(isa.S2, isa.S2, 1)
		b.Addi(isa.S0, isa.S0, -1)
		b.Bgtz(isa.S0, "loop")
		b.Halt()
	})
	with := runSim(t, DefaultConfig(), p)
	cfg := DefaultConfig()
	cfg.UseTraceCache = false
	without := runSim(t, cfg, p)
	if without.TCHits != 0 {
		t.Error("trace cache used despite ablation")
	}
	if with.IPC <= without.IPC {
		t.Errorf("trace cache should help this loop: with %f, without %f", with.IPC, without.IPC)
	}
}

func TestPromotionHappens(t *testing.T) {
	p := buildProgram(t, simpleLoop(2000))
	st := runSim(t, DefaultConfig(), p)
	if st.PromotedRetired == 0 {
		t.Error("a 2000-iteration loop should promote its branch")
	}
}

func TestFillLatencyNegligible(t *testing.T) {
	p := buildProgram(t, simpleLoop(1500))
	var ipcs []float64
	for _, lat := range []int{1, 5, 10} {
		cfg := DefaultConfig()
		cfg.Fill.FillLatency = lat
		st := runSim(t, cfg, p)
		ipcs = append(ipcs, st.IPC)
	}
	// Paper: fill latency has negligible impact.
	for _, ipc := range ipcs[1:] {
		if ipc < ipcs[0]*0.9 || ipc > ipcs[0]*1.1 {
			t.Errorf("fill latency changed IPC too much: %v", ipcs)
		}
	}
}

// TestSquashAfterKillsSeqSuffix: recovery's squash kills exactly the
// live uops younger than the recovery point — the window's Seq suffix —
// and releases what they hold (window space, RS entries, checkpoints),
// leaving every older uop as it was. Activated inactive uops survive a
// recovery because activation only ever extends the kept prefix.
func TestSquashAfterKillsSeqSuffix(t *testing.T) {
	w, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("no workload gcc")
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = 0
	sim, err := New(cfg, w.Build())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000 && sim.eng.Live() < 64; i++ {
		sim.Step()
	}
	if sim.eng.Live() < 64 {
		t.Fatalf("window never held 64 live uops (%d)", sim.eng.Live())
	}
	n := sim.eng.Len()
	cut := sim.eng.At(n / 2).Seq
	wasLive := make([]bool, n)
	for i := range wasLive {
		u := sim.eng.At(i)
		wasLive[i] = !u.Dead && !u.Retired
	}

	sim.squashAfter(cut)

	live, ckpts, killed := 0, 0, 0
	rs := make([]int, sim.eng.FUs())
	for i := 0; i < n; i++ {
		u := sim.eng.At(i)
		alive := !u.Dead && !u.Retired
		switch {
		case u.Seq > cut && alive:
			t.Errorf("uop %d is younger than the cut %d but survived", u.Seq, cut)
		case u.Seq > cut && wasLive[i]:
			killed++
		case u.Seq <= cut && alive != wasLive[i]:
			t.Errorf("uop %d is not younger than the cut %d but changed state", u.Seq, cut)
		}
		if alive {
			live++
			if u.InRS {
				rs[u.FU]++
			}
			if u.HasCheckpoint {
				ckpts++
			}
		}
	}
	if killed == 0 {
		t.Fatal("the suffix held no live uop to squash")
	}
	if got := sim.eng.Live(); got != live {
		t.Errorf("engine counts %d live uops, window holds %d", got, live)
	}
	for f, want := range rs {
		if got := sim.eng.RSOccupancy(f); got != want {
			t.Errorf("FU %d: RS occupancy %d, live RS-resident uops %d", f, got, want)
		}
	}
	if got := cfg.Checkpoints - sim.pool.Available(); got != ckpts {
		t.Errorf("%d checkpoints in use, live uops hold %d", got, ckpts)
	}
}
