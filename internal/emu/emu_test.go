package emu

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"tcsim/internal/asm"
	"tcsim/internal/isa"
	"tcsim/internal/workload"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Read32(0x1000) != 0 {
		t.Error("unmapped read should be 0")
	}
	if m.MappedPages() != 0 {
		t.Error("read should not allocate")
	}
	m.Write32(0x1000, 0xDEADBEEF)
	if m.Read32(0x1000) != 0xDEADBEEF {
		t.Error("word round trip failed")
	}
	if m.Read8(0x1000) != 0xEF || m.Read8(0x1003) != 0xDE {
		t.Error("little-endian layout wrong")
	}
	m.Write16(0x2000, 0x1234)
	if m.Read16(0x2000) != 0x1234 {
		t.Error("halfword round trip failed")
	}
	// Cross-page accesses.
	m.Write32(0xFFF-1, 0xCAFEBABE)
	if m.Read32(0xFFF-1) != 0xCAFEBABE {
		t.Error("cross-page word failed")
	}
	m.Write16(0xFFF, 0xBEEF)
	if m.Read16(0xFFF) != 0xBEEF {
		t.Error("cross-page halfword failed")
	}
}

func TestMemoryProperty(t *testing.T) {
	f := func(addr uint32, v uint32) bool {
		m := NewMemory()
		m.Write32(addr, v)
		return m.Read32(addr) == v &&
			m.Read8(addr) == byte(v) &&
			m.Read16(addr) == uint16(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func buildAndRun(t *testing.T, build func(b *asm.Builder), maxSteps uint64) *Machine {
	t.Helper()
	b := asm.NewBuilder()
	build(b)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if _, err := m.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		b.Li(isa.T0, 7)
		b.Li(isa.T1, -3)
		b.Add(isa.T2, isa.T0, isa.T1)  // 4
		b.Sub(isa.T3, isa.T0, isa.T1)  // 10
		b.Mul(isa.T4, isa.T0, isa.T1)  // -21
		b.Div(isa.T5, isa.T3, isa.T0)  // 1
		b.Slt(isa.T6, isa.T1, isa.T0)  // 1
		b.Sltu(isa.T7, isa.T1, isa.T0) // 0 (unsigned -3 is huge)
		b.And(isa.S0, isa.T0, isa.T3)  // 7&10 = 2
		b.Or(isa.S1, isa.T0, isa.T3)   // 15
		b.Xor(isa.S2, isa.T0, isa.T3)  // 13
		b.Nor(isa.S3, isa.R0, isa.R0)  // 0xFFFFFFFF
		b.Halt()
	}, 100)
	want := map[isa.Reg]uint32{
		isa.T2: 4, isa.T3: 10, isa.T4: ^uint32(20), isa.T5: 1,
		isa.T6: 1, isa.T7: 0, isa.S0: 2, isa.S1: 15, isa.S2: 13,
		isa.S3: 0xFFFFFFFF,
	}
	for r, v := range want {
		if m.Reg[r] != v {
			t.Errorf("%v = %#x want %#x", r, m.Reg[r], v)
		}
	}
}

func TestShifts(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		b.Li(isa.T0, -8)
		b.Slli(isa.T1, isa.T0, 2)
		b.Srli(isa.T2, isa.T0, 2)
		b.Srai(isa.T3, isa.T0, 2)
		b.Li(isa.T4, 3)
		b.Sllv(isa.T5, isa.T0, isa.T4)
		b.Srlv(isa.T6, isa.T0, isa.T4)
		b.Srav(isa.T7, isa.T0, isa.T4)
		b.Halt()
	}, 100)
	if int32(m.Reg[isa.T1]) != -32 {
		t.Errorf("slli = %#x", m.Reg[isa.T1])
	}
	if m.Reg[isa.T2] != 0xFFFFFFF8>>2 {
		t.Errorf("srli = %#x", m.Reg[isa.T2])
	}
	if int32(m.Reg[isa.T3]) != -2 {
		t.Errorf("srai = %#x", m.Reg[isa.T3])
	}
	if int32(m.Reg[isa.T5]) != -64 || m.Reg[isa.T6] != 0xFFFFFFF8>>3 || int32(m.Reg[isa.T7]) != -1 {
		t.Error("variable shifts wrong")
	}
}

func TestDivByZero(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		b.Li(isa.T0, 5)
		b.Div(isa.T1, isa.T0, isa.R0)
		b.Halt()
	}, 10)
	if m.Reg[isa.T1] != 0 {
		t.Errorf("div by zero = %d, want 0", m.Reg[isa.T1])
	}
}

func TestMemoryOps(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		b.DataLabel("buf")
		b.Word(0x11223344)
		b.Space(64)
		b.La(isa.S0, "buf")
		b.Lw(isa.T0, isa.S0, 0)
		b.Lb(isa.T1, isa.S0, 3)  // 0x11 sign extended
		b.Lbu(isa.T2, isa.S0, 0) // 0x44
		b.Lh(isa.T3, isa.S0, 0)  // 0x3344
		b.Lhu(isa.T4, isa.S0, 2) // 0x1122
		b.Li(isa.T5, -1)
		b.Sw(isa.T5, isa.S0, 4)
		b.Lw(isa.T6, isa.S0, 4)
		b.Sb(isa.T0, isa.S0, 8)
		b.Lbu(isa.T7, isa.S0, 8) // low byte of T0 = 0x44
		b.Sh(isa.T3, isa.S0, 12)
		b.Lhu(isa.S1, isa.S0, 12)
		b.Li(isa.S2, 16)
		b.Swx(isa.T0, isa.S0, isa.S2)
		b.Lwx(isa.S3, isa.S0, isa.S2)
		b.Halt()
	}, 100)
	checks := map[isa.Reg]uint32{
		isa.T0: 0x11223344, isa.T1: 0x11, isa.T2: 0x44, isa.T3: 0x3344,
		isa.T4: 0x1122, isa.T6: 0xFFFFFFFF, isa.T7: 0x44, isa.S1: 0x3344,
		isa.S3: 0x11223344,
	}
	for r, v := range checks {
		if m.Reg[r] != v {
			t.Errorf("%v = %#x want %#x", r, m.Reg[r], v)
		}
	}
}

func TestLoadSignExtension(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		b.DataLabel("x")
		b.Byte(0x80, 0xFF)
		b.La(isa.S0, "x")
		b.Lb(isa.T0, isa.S0, 0)
		b.Lh(isa.T1, isa.S0, 0)
		b.Halt()
	}, 20)
	if int32(m.Reg[isa.T0]) != -128 {
		t.Errorf("lb sign extension = %d", int32(m.Reg[isa.T0]))
	}
	if int32(m.Reg[isa.T1]) != -128 {
		t.Errorf("lh sign extension = %d", int32(m.Reg[isa.T1]))
	}
}

func TestControlFlow(t *testing.T) {
	// Sum 1..10 with a loop, via a call.
	m := buildAndRun(t, func(b *asm.Builder) {
		b.Label("main")
		b.Li(isa.A0, 10)
		b.Jal("sum")
		b.Move(isa.S0, isa.V0)
		b.Halt()
		b.Label("sum")
		b.Li(isa.V0, 0)
		b.Label("loop")
		b.Blez(isa.A0, "done")
		b.Add(isa.V0, isa.V0, isa.A0)
		b.Addi(isa.A0, isa.A0, -1)
		b.B("loop")
		b.Label("done")
		b.Ret()
	}, 1000)
	if m.Reg[isa.S0] != 55 {
		t.Errorf("sum = %d want 55", m.Reg[isa.S0])
	}
}

func TestIndirectCall(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		b.La(isa.T9, "fn")
		b.Jalr(isa.RA, isa.T9)
		b.Halt()
		b.Label("fn")
		b.Li(isa.V0, 42)
		b.Ret()
	}, 100)
	if m.Reg[isa.V0] != 42 {
		t.Errorf("v0 = %d", m.Reg[isa.V0])
	}
}

func TestBranchVariants(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		b.Li(isa.T0, -1)
		b.Li(isa.T1, 1)
		b.Li(isa.S0, 0)

		b.Bltz(isa.T0, "a")
		b.Halt()
		b.Label("a")
		b.Ori(isa.S0, isa.S0, 1)
		b.Bgez(isa.T1, "b")
		b.Halt()
		b.Label("b")
		b.Ori(isa.S0, isa.S0, 2)
		b.Bgtz(isa.T1, "c")
		b.Halt()
		b.Label("c")
		b.Ori(isa.S0, isa.S0, 4)
		b.Blez(isa.T0, "d")
		b.Halt()
		b.Label("d")
		b.Ori(isa.S0, isa.S0, 8)
		b.Beq(isa.T0, isa.T0, "e")
		b.Halt()
		b.Label("e")
		b.Ori(isa.S0, isa.S0, 16)
		b.Bne(isa.T0, isa.T1, "f")
		b.Halt()
		b.Label("f")
		b.Ori(isa.S0, isa.S0, 32)
		// Not-taken checks.
		b.Bltz(isa.T1, "bad")
		b.Bgtz(isa.T0, "bad")
		b.Beq(isa.T0, isa.T1, "bad")
		b.Halt()
		b.Label("bad")
		b.Li(isa.S0, 0)
		b.Halt()
	}, 100)
	if m.Reg[isa.S0] != 63 {
		t.Errorf("branch mask = %d want 63", m.Reg[isa.S0])
	}
}

func TestOutput(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		for _, c := range "ok" {
			b.Li(isa.A0, int32(c))
			b.Out(isa.A0)
		}
		b.Halt()
	}, 100)
	if string(m.Output) != "ok" {
		t.Errorf("output = %q", m.Output)
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	m := buildAndRun(t, func(b *asm.Builder) {
		b.Addi(isa.R0, isa.R0, 5)
		b.Li(isa.T0, 7)
		b.Add(isa.R0, isa.T0, isa.T0)
		b.Halt()
	}, 10)
	if m.Reg[isa.R0] != 0 {
		t.Errorf("r0 = %d", m.Reg[isa.R0])
	}
}

func TestRunLimits(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("spin")
	b.B("spin")
	p := b.MustAssemble()
	m := New(p)
	if _, err := m.Run(100); err == nil {
		t.Error("non-halting program should report step-limit error")
	}
}

func TestIllegalInstruction(t *testing.T) {
	b := asm.NewBuilder()
	b.Jr(isa.T0) // jump to 0: unmapped => word 0... actually word 0 decodes as NOP
	p := b.MustAssemble()
	m := New(p)
	m.Mem.Write32(0x0, 0xF4000000) // undefined encoding at target
	if _, err := m.Run(10); err == nil {
		t.Error("expected illegal instruction error")
	}
}

func TestStepAfterHalt(t *testing.T) {
	b := asm.NewBuilder()
	b.Halt()
	m := New(b.MustAssemble())
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Error("step after halt should fail")
	}
}

func TestRecordFields(t *testing.T) {
	b := asm.NewBuilder()
	b.DataLabel("x")
	b.Word(9)
	b.La(isa.S0, "x") // 2 insts
	b.Lw(isa.T0, isa.S0, 0)
	b.Sw(isa.T0, isa.S0, 4)
	b.Beq(isa.T0, isa.T0, "t")
	b.Nop()
	b.Label("t")
	b.Halt()
	m := New(b.MustAssemble())
	m.Step()
	m.Step()
	lw, _ := m.Step()
	if !lw.Load || lw.Store || lw.EA != asm.DataBase {
		t.Errorf("lw record = %+v", lw)
	}
	sw, _ := m.Step()
	if !sw.Store || sw.Load || sw.EA != asm.DataBase+4 {
		t.Errorf("sw record = %+v", sw)
	}
	beq, _ := m.Step()
	if !beq.Taken || beq.NextPC != beq.PC+8 {
		t.Errorf("beq record = %+v", beq)
	}
	halt, _ := m.Step()
	if halt.Inst.Op != isa.HALT || !m.Halted {
		t.Errorf("halt record = %+v", halt)
	}
}

func TestOracle(t *testing.T) {
	b := asm.NewBuilder()
	b.Li(isa.T0, 3)
	b.Label("loop")
	b.Addi(isa.T0, isa.T0, -1)
	b.Bgtz(isa.T0, "loop")
	b.Halt()
	o := NewOracle(New(b.MustAssemble()))

	r0, ok := o.At(0)
	if !ok || r0.Inst.Op != isa.ADDI {
		t.Fatalf("At(0) = %+v, %v", r0, ok)
	}
	// Random access forward.
	r5, ok := o.At(5)
	if !ok {
		t.Fatal("At(5) failed")
	}
	if r5.Seq != 5 {
		t.Errorf("seq = %d", r5.Seq)
	}
	// Re-read an earlier one.
	r3, ok := o.At(3)
	if !ok || r3.Seq != 3 {
		t.Errorf("At(3) = %+v", r3)
	}
	// The program is 1 li + 3*(addi,bgtz) + halt = 8 instructions.
	if _, ok := o.At(8); ok {
		t.Error("At(8) should be past the end")
	}
	if last, ok := o.At(7); !ok || last.Inst.Op != isa.HALT {
		t.Errorf("At(7) = %+v, %v", last, ok)
	}
	if o.Err() != nil {
		t.Errorf("oracle err = %v", o.Err())
	}

	o.Release(6)
	if o.WindowLen() != 2 {
		t.Errorf("window len = %d", o.WindowLen())
	}
	if _, ok := o.At(6); !ok {
		t.Error("At(6) after release(6) should work")
	}
	defer func() {
		if recover() == nil {
			t.Error("At below base should panic")
		}
	}()
	o.At(2)
}

func TestOracleReleaseAll(t *testing.T) {
	b := asm.NewBuilder()
	b.Nop()
	b.Halt()
	o := NewOracle(New(b.MustAssemble()))
	o.At(1)
	o.Release(10)
	if o.WindowLen() != 0 {
		t.Error("window should be empty")
	}
	if _, ok := o.At(10); ok {
		t.Error("past-end read should fail")
	}
}

// BenchmarkMachineRun measures the functional emulator alone: one
// compress machine stepped 1M instructions per iteration, restarted
// when it halts. This is the engine under capture, checkpoint logs and
// warm-mode fast-forward.
func BenchmarkMachineRun(b *testing.B) {
	w, _ := workload.ByName("compress")
	prog := w.Build()
	const chunk = 1_000_000
	m := New(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(chunk); errors.Is(err, ErrBadInstruction) {
			b.Fatal(err)
		}
		if m.Halted {
			m = New(prog)
		}
	}
	b.ReportMetric(float64(b.N)*chunk/b.Elapsed().Seconds(), "inst/s")
}

// patchedWord is the encoding a self-modifying program stores over its
// own "addi a0, zero, 1": the same instruction with immediate 7.
var patchedWord = isa.MustEncode(isa.Inst{Op: isa.ADDI, Rt: isa.A0, Imm: 7})

// stepChecked runs m to HALT, checking before every step that the
// instruction Step executes is isa.Decode of the word in memory at PC.
func stepChecked(t *testing.T, m *Machine, maxSteps int) {
	t.Helper()
	for i := 0; !m.Halted; i++ {
		if i == maxSteps {
			t.Fatalf("no HALT within %d steps", maxSteps)
		}
		want := isa.Decode(m.Mem.Read32(m.PC))
		rec, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Inst != want {
			t.Fatalf("step %d at pc %#x executed %v, memory holds %v", i, rec.PC, rec.Inst, want)
		}
	}
}

// TestSelfModifyingText: a program executes "patch", overwrites it with
// a store, and executes it again. The second execution must run the
// stored instruction, for every store width and addressing form.
func TestSelfModifyingText(t *testing.T) {
	stores := []struct {
		name  string
		value int32 // loaded into T1
		store func(b *asm.Builder)
	}{
		{"sw", int32(patchedWord), func(b *asm.Builder) { b.Sw(isa.T1, isa.T0, 0) }},
		{"swx", int32(patchedWord), func(b *asm.Builder) { b.Swx(isa.T1, isa.T0, isa.R0) }},
		{"sh", 7, func(b *asm.Builder) { b.Sh(isa.T1, isa.T0, 0) }}, // low halfword is imm16
		{"sb", 7, func(b *asm.Builder) { b.Sb(isa.T1, isa.T0, 0) }}, // low byte of imm16
	}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			b := asm.NewBuilder()
			b.Label("main")
			b.Li(isa.S0, 2)
			b.La(isa.T0, "patch")
			b.Li(isa.T1, tc.value)
			b.Label("patch")
			b.Addi(isa.A0, isa.R0, 1)
			b.Out(isa.A0)
			tc.store(b)
			b.Addi(isa.S0, isa.S0, -1)
			b.Bgtz(isa.S0, "patch")
			b.Halt()
			p := b.MustAssemble()
			patch, _ := p.Symbol("patch")

			m := New(p)
			stepChecked(t, m, 100)
			if string(m.Output) != "\x01\x07" {
				t.Errorf("OUT = %q, want \"\\x01\\x07\"", m.Output)
			}
			if got, _ := p.InstAt(patch); got.Imm != 1 {
				t.Errorf("store reached the shared program image: %v", got)
			}
		})
	}
}

// TestWriteBytesOverText: a host-side WriteBytes into the text image
// (the path a loader or debugger takes) re-decodes what it overwrote.
func TestWriteBytesOverText(t *testing.T) {
	b := asm.NewBuilder()
	b.Label("patch")
	b.Addi(isa.A0, isa.R0, 1)
	b.Out(isa.A0)
	b.Halt()
	p := b.MustAssemble()
	m := New(p)
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], patchedWord)
	m.Mem.WriteBytes(p.Entry, w[:])
	stepChecked(t, m, 10)
	if string(m.Output) != "\x07" {
		t.Errorf("OUT = %q, want \"\\x07\"", m.Output)
	}
}

// TestFetchOutsideText: control reaching code outside the text image
// (here, instructions planted in the data section) or a misaligned PC
// decodes the word in memory, so the table is an accelerator, not a
// second execution path.
func TestFetchOutsideText(t *testing.T) {
	b := asm.NewBuilder()
	b.DataLabel("code")
	b.Word(int32(patchedWord), int32(isa.MustEncode(isa.Inst{Op: isa.OUT, Rs: isa.A0})),
		int32(isa.MustEncode(isa.Inst{Op: isa.HALT})))
	b.Label("main")
	b.La(isa.T0, "code")
	b.Jr(isa.T0)
	p := b.MustAssemble()
	m := New(p)
	stepChecked(t, m, 10)
	if string(m.Output) != "\x07" {
		t.Errorf("OUT = %q, want \"\\x07\"", m.Output)
	}

	// A misaligned jump into the text image executes the straddling word.
	m = New(p)
	m.PC = p.Entry + 2
	want := isa.Decode(m.Mem.Read32(m.PC))
	rec, _ := m.Step()
	if rec.Inst != want {
		t.Errorf("misaligned fetch executed %v, memory holds %v", rec.Inst, want)
	}
}
