package core

import (
	"math/rand"
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/emu"
	"tcsim/internal/isa"
	"tcsim/internal/trace"
)

// checkSemanticEquivalence runs the program through the fill unit under
// cfg and verifies, for every finished segment, that executing the
// optimized segment via the explicit dependence information (EvalSegment)
// reproduces exactly the per-instruction results, branch outcomes and
// effective addresses the functional emulator observed. This is the
// master correctness property: no optimization pass may change program
// semantics.
func checkSemanticEquivalence(t *testing.T, cfg Config, build func(*asm.Builder), maxSteps uint64) {
	t.Helper()
	segs, recs, regs, prog := runFill(t, cfg, bias4(), maxSteps, build)

	// Segments are built in retirement order and cover the record stream
	// contiguously.
	startSeq := 0
	for segIdx, seg := range segs {
		// Reconstruct memory as of the segment's first instruction:
		// initial image plus all earlier stores.
		mem := emu.NewMemory()
		for i, w := range prog.Text {
			mem.Write32(prog.TextBase+uint32(i)*isa.InstBytes, w)
		}
		mem.WriteBytes(prog.DataBase, prog.Data)
		for _, r := range recs[:startSeq] {
			if !r.Store {
				continue
			}
			switch r.Inst.Op.MemBytes() {
			case 1:
				mem.Write8(r.EA, byte(r.Val))
			case 2:
				mem.Write16(r.EA, uint16(r.Val))
			default:
				mem.Write32(r.EA, r.Val)
			}
		}

		results, eas, err := EvalSegment(seg, regs[startSeq], mem)
		if err != nil {
			t.Fatalf("segment %d: %v", segIdx, err)
		}
		for i := range seg.Insts {
			rec := recs[startSeq+i]
			si := &seg.Insts[i]
			if rec.PC != si.PC {
				t.Fatalf("segment %d inst %d: pc %#x != record pc %#x", segIdx, i, si.PC, rec.PC)
			}
			op := si.Orig.Op
			switch {
			case op.IsCondBranch():
				if (results[i] == 1) != rec.Taken {
					t.Fatalf("segment %d inst %d (%v): taken %v != %v", segIdx, i, si.Orig, results[i] == 1, rec.Taken)
				}
			case op.IsMem():
				if eas[i] != rec.EA {
					t.Fatalf("segment %d inst %d (%v): ea %#x != %#x", segIdx, i, si.Orig, eas[i], rec.EA)
				}
				if results[i] != rec.Val {
					t.Fatalf("segment %d inst %d (%v): val %#x != %#x", segIdx, i, si.Orig, results[i], rec.Val)
				}
			default:
				if _, hasDest := si.Orig.Dest(); hasDest && results[i] != rec.Val {
					t.Fatalf("segment %d inst %d (%v -> %v): value %#x != emulator %#x",
						segIdx, i, si.Orig, si.Inst, results[i], rec.Val)
				}
			}
		}
		startSeq += seg.Len()
	}
	if startSeq != len(recs) {
		t.Fatalf("segments cover %d records of %d", startSeq, len(recs))
	}
}

// allOptCombos enumerates the 16 on/off combinations of the four passes.
func allOptCombos() []Optimizations {
	var out []Optimizations
	for m := 0; m < 16; m++ {
		out = append(out, Optimizations{
			Moves:      m&1 != 0,
			Reassoc:    m&2 != 0,
			ScaledAdds: m&4 != 0,
			Placement:  m&8 != 0,
		})
	}
	return out
}

func TestSemanticEquivalenceMixedProgram(t *testing.T) {
	for _, opt := range allOptCombos() {
		cfg := DefaultConfig()
		cfg.Opt = opt
		cfg.ReassocCrossBlockOnly = false // widest applicability
		checkSemanticEquivalence(t, cfg, mixedProgram, 20000)
	}
}

// randomProgram emits a random but terminating program: a chain of
// basic blocks, each a run of random ALU/memory operations ending in a
// forward conditional branch, finishing with HALT. Memory operations use
// GP-relative addressing into a private scratch buffer so random register
// values never corrupt the text image.
func randomProgram(rng *rand.Rand) func(*asm.Builder) {
	return func(b *asm.Builder) {
		b.DataLabel("scratch")
		for i := 0; i < 64; i++ {
			b.Word(rng.Int31())
		}
		regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.S0, isa.S1, isa.S2}
		rr := func() isa.Reg { return regs[rng.Intn(len(regs))] }
		// Seed registers with known values.
		for _, r := range regs {
			b.Li(r, rng.Int31n(1<<16)-1<<15)
		}
		nblocks := 4 + rng.Intn(6)
		for blk := 0; blk < nblocks; blk++ {
			blockLen := 3 + rng.Intn(10)
			for j := 0; j < blockLen; j++ {
				switch rng.Intn(12) {
				case 0:
					b.Addi(rr(), rr(), rng.Int31n(256)-128)
				case 1:
					b.Add(rr(), rr(), rr())
				case 2:
					b.Sub(rr(), rr(), rr())
				case 3:
					b.Move(rr(), rr())
				case 4:
					b.Slli(rr(), rr(), rng.Int31n(4))
				case 5:
					b.Slli(rr(), rr(), 1+rng.Int31n(3)) // scaled-add feeder
				case 6:
					// addi chain for reassociation
					r := rr()
					b.Addi(r, rr(), rng.Int31n(64))
					b.Addi(rr(), r, rng.Int31n(64))
				case 7:
					b.Lw(rr(), isa.GP, rng.Int31n(60)*4)
				case 8:
					b.Sw(rr(), isa.GP, rng.Int31n(60)*4)
				case 9:
					// Indexed access with a bounded index register.
					idx := rr()
					b.Andi(idx, idx, 0xFC)
					b.Lwx(rr(), isa.GP, idx)
				case 10:
					b.Mul(rr(), rr(), rr())
				case 11:
					b.Xor(rr(), rr(), rr())
				}
			}
			label := blockLabel(blk)
			switch rng.Intn(3) {
			case 0:
				b.Bgtz(rr(), label)
			case 1:
				b.Beq(rr(), rr(), label)
			case 2:
				b.Bltz(rr(), label)
			}
			// Fall-through filler so taken/not-taken paths really differ.
			for j := rng.Intn(4); j > 0; j-- {
				b.Addi(rr(), rr(), rng.Int31n(16))
			}
			b.Label(label)
		}
		b.Halt()
	}
}

func blockLabel(i int) string { return "blk" + string(rune('a'+i)) }

func TestSemanticEquivalenceRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	combos := allOptCombos()
	for trial := 0; trial < 24; trial++ {
		prog := randomProgram(rng)
		cfg := DefaultConfig()
		cfg.Opt = combos[trial%len(combos)]
		cfg.ReassocCrossBlockOnly = trial%2 == 0
		checkSemanticEquivalence(t, cfg, prog, 100000)
	}
}

func TestSemanticEquivalenceWithPromotionAndPacking(t *testing.T) {
	for _, packing := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Opt = AllOptimizations()
		cfg.TracePacking = packing
		checkSemanticEquivalence(t, cfg, mixedProgram, 20000)
	}
}

// legalPermutations enumerates every ordering of the given passes that
// ValidateSpec accepts.
func legalPermutations(passes []string) [][]string {
	var out [][]string
	var permute func(cur, rest []string)
	permute = func(cur, rest []string) {
		if len(rest) == 0 {
			spec := append([]string(nil), cur...)
			if ValidateSpec(spec) == nil {
				out = append(out, spec)
			}
			return
		}
		for i := range rest {
			next := append(cur, rest[i])
			var remaining []string
			remaining = append(remaining, rest[:i]...)
			remaining = append(remaining, rest[i+1:]...)
			permute(next, remaining)
		}
	}
	permute(nil, passes)
	return out
}

// TestSemanticEquivalenceLegalPermutations sweeps every legal ordering
// of the full five-pass pipeline: whatever order the pass manager
// accepts must preserve program semantics. (With place pinned last and
// reassoc constrained before moves, 12 of the 120 orderings are legal.)
func TestSemanticEquivalenceLegalPermutations(t *testing.T) {
	perms := legalPermutations([]string{"reassoc", "moves", "scadd", "deadwrite", "place"})
	if len(perms) != 12 {
		t.Fatalf("got %d legal permutations, want 12", len(perms))
	}
	for _, spec := range perms {
		cfg := DefaultConfig()
		cfg.Passes = spec
		cfg.CheckPasses = true            // validate invariants between passes
		cfg.ReassocCrossBlockOnly = false // widest applicability
		checkSemanticEquivalence(t, cfg, mixedProgram, 20000)
	}
}

// Property: segments always validate and slots are a valid permutation,
// under random programs and all optimizations.
func TestSegmentInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		cfg := DefaultConfig()
		cfg.Opt = AllOptimizations()
		cfg.ReassocCrossBlockOnly = false
		segs, _, _, _ := runFill(t, cfg, bias4(), 100000, randomProgram(rng))
		for _, s := range segs {
			CheckInvariants(s)
		}
		_ = trace.MaxInsts
	}
}
