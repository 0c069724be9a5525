package tracestore

import (
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/isa"
)

// selfModLoops is the spin count of selfModProgram: 2 instructions per
// iteration keep it running past several checkpoint intervals.
const selfModLoops = 50_000

// selfModProgram stores "addi a0, zero, 7" over its own "patch"
// instruction (originally "addi a0, zero, 1") within its first few
// instructions, spins for 2*selfModLoops instructions, then executes
// patch and emits a0. Its OUT is therefore "\x07", and every checkpoint
// carries the rewritten text page.
func selfModProgram() *asm.Program {
	b := asm.NewBuilder()
	b.Label("main")
	b.La(isa.T0, "patch")
	b.Li(isa.T1, int32(isa.MustEncode(isa.Inst{Op: isa.ADDI, Rt: isa.A0, Imm: 7})))
	b.Sw(isa.T1, isa.T0, 0)
	b.Li(isa.S0, selfModLoops)
	b.Label("spin")
	b.Addi(isa.S0, isa.S0, -1)
	b.Bgtz(isa.S0, "spin")
	b.Label("patch")
	b.Addi(isa.A0, isa.R0, 1)
	b.Out(isa.A0)
	b.Halt()
	return b.MustAssemble()
}

// TestSelfModifyingTextAcrossCheckpoints: a machine restored from a
// checkpoint gets the rewritten text page through WritePage, so it must
// execute the stored instruction, not the program image's original —
// whether rebuilt by MachineAt or by a CkptSource seek.
func TestSelfModifyingTextAcrossCheckpoints(t *testing.T) {
	prog := selfModProgram()
	const budget = 4 * selfModLoops
	log, err := CaptureCheckpointLog("selfmod", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	if string(log.out) != "\x07" {
		t.Fatalf("capture OUT = %q, want \"\\x07\"", log.out)
	}
	seqs := log.CheckpointSeqs()
	if len(seqs) < 2 {
		t.Fatalf("want at least 2 checkpoints, got %v", seqs)
	}
	// Land past the last checkpoint, which was taken long after the store.
	target := seqs[len(seqs)-1] + 10

	t.Run("MachineAt", func(t *testing.T) {
		m, err := log.MachineAt(prog, target)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(budget); err != nil {
			t.Fatal(err)
		}
		if string(m.Output) != "\x07" {
			t.Errorf("restored machine OUT = %q, want \"\\x07\"", m.Output)
		}
	})

	t.Run("CkptSource", func(t *testing.T) {
		src := NewCkptSource(prog, log, 64)
		src.Seek(target)
		if src.CheckpointRestores() != 1 {
			t.Fatalf("seek restored %d checkpoints, want 1", src.CheckpointRestores())
		}
		for seq := target; ; seq++ {
			if _, ok := src.At(seq); !ok {
				break
			}
			src.Release(seq)
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		if string(src.Output()) != "\x07" {
			t.Errorf("seeked source OUT = %q, want \"\\x07\"", src.Output())
		}
	})
}

// TestCaptureSelfModifyingText: a full capture interns the patched PC
// once per distinct word, so its replay serves the rewritten
// instruction exactly as live emulation executed it.
func TestCaptureSelfModifyingText(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("main")
	b.Li(isa.S0, 2)
	b.La(isa.T0, "patch")
	b.Li(isa.T1, int32(isa.MustEncode(isa.Inst{Op: isa.ADDI, Rt: isa.A0, Imm: 7})))
	b.Label("patch")
	b.Addi(isa.A0, isa.R0, 1)
	b.Out(isa.A0)
	b.Sw(isa.T1, isa.T0, 0)
	b.Addi(isa.S0, isa.S0, -1)
	b.Bgtz(isa.S0, "patch")
	b.Halt()
	prog := b.MustAssemble()
	patch, _ := prog.Symbol("patch")

	tr, err := Capture("selfmod", prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	var imms []int32
	r := tr.NewReplay()
	for seq := uint64(0); ; seq++ {
		rec, ok := r.At(seq)
		if !ok {
			break
		}
		if rec.PC == patch {
			imms = append(imms, rec.Inst.Imm)
		}
	}
	if len(imms) != 2 || imms[0] != 1 || imms[1] != 7 {
		t.Errorf("replayed patch immediates %v, want [1 7]", imms)
	}
	if string(r.Output()) != "\x01\x07" {
		t.Errorf("replay OUT = %q, want \"\\x01\\x07\"", r.Output())
	}
}
