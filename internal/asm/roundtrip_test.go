package asm

import (
	"fmt"
	"strings"
	"testing"

	"tcsim/internal/isa"
)

// roundTripInsts holds one instruction of every form the disassembler
// prints and the assembler parses.
var roundTripInsts = []isa.Inst{
	{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.SUB, Rd: isa.S0, Rs: isa.S1, Rt: isa.S2},
	{Op: isa.AND, Rd: isa.V0, Rs: isa.A0, Rt: isa.A1},
	{Op: isa.OR, Rd: isa.T3, Rs: isa.T4, Rt: isa.T5},
	{Op: isa.XOR, Rd: isa.T6, Rs: isa.T7, Rt: isa.T8},
	{Op: isa.NOR, Rd: isa.S3, Rs: isa.S4, Rt: isa.S5},
	{Op: isa.SLT, Rd: isa.V1, Rs: isa.A2, Rt: isa.A3},
	{Op: isa.SLTU, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.SLLV, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.SRLV, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.SRAV, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.MUL, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.DIV, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.LWX, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.SWX, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
	{Op: isa.ADDI, Rt: isa.T0, Rs: isa.T1, Imm: -42},
	{Op: isa.ANDI, Rt: isa.T0, Rs: isa.T1, Imm: 255},
	{Op: isa.ORI, Rt: isa.T0, Rs: isa.T1, Imm: 4096},
	{Op: isa.XORI, Rt: isa.T0, Rs: isa.T1, Imm: 7},
	{Op: isa.SLTI, Rt: isa.T0, Rs: isa.T1, Imm: -1},
	{Op: isa.SLTIU, Rt: isa.T0, Rs: isa.T1, Imm: 100},
	{Op: isa.LUI, Rt: isa.T0, Imm: 4096},
	{Op: isa.SLLI, Rt: isa.T0, Rs: isa.T1, Imm: 3},
	{Op: isa.SRLI, Rt: isa.T0, Rs: isa.T1, Imm: 31},
	{Op: isa.SRAI, Rt: isa.T0, Rs: isa.T1, Imm: 1},
	{Op: isa.LB, Rt: isa.T0, Rs: isa.SP, Imm: -8},
	{Op: isa.LBU, Rt: isa.T0, Rs: isa.SP, Imm: 8},
	{Op: isa.LH, Rt: isa.T0, Rs: isa.SP, Imm: 2},
	{Op: isa.LHU, Rt: isa.T0, Rs: isa.SP, Imm: 6},
	{Op: isa.LW, Rt: isa.T0, Rs: isa.GP, Imm: 64},
	{Op: isa.SB, Rt: isa.T0, Rs: isa.SP, Imm: 0},
	{Op: isa.SH, Rt: isa.T0, Rs: isa.SP, Imm: 2},
	{Op: isa.SW, Rt: isa.T0, Rs: isa.GP, Imm: -4},
	{Op: isa.JR, Rs: isa.RA},
	{Op: isa.JALR, Rd: isa.RA, Rs: isa.T9},
	{Op: isa.NOP},
	{Op: isa.HALT},
	{Op: isa.OUT, Rs: isa.A0},
}

// TestDisasmAssembleRoundTrip checks that the assembler parses the
// disassembler's own output back to the identical encoding for every
// instruction form — the two halves of the toolchain agree.
func TestDisasmAssembleRoundTrip(t *testing.T) {
	for _, in := range roundTripInsts {
		text := isa.Disasm(in, 0)
		p, err := AssembleText(text + "\nhalt\n")
		if err != nil {
			t.Fatalf("assemble %q: %v", text, err)
		}
		got := isa.Decode(p.Text[0])
		if got != in {
			t.Errorf("round trip %q: %v -> %v", text, in, got)
		}
	}
}

// TestBranchRoundTrip checks branch and jump label resolution matches
// the disassembly targets.
func TestBranchRoundTrip(t *testing.T) {
	src := `
main:
    beq  t0, t1, fwd
    bne  t0, t1, fwd
    blez t0, fwd
    bgtz t0, fwd
    bltz t0, fwd
    bgez t0, fwd
fwd:
    j    main
    jal  main
    halt
`
	p, err := AssembleText(src)
	if err != nil {
		t.Fatal(err)
	}
	fwd := p.Symbols["fwd"]
	for i := 0; i < 6; i++ {
		in := isa.Decode(p.Text[i])
		pc := p.TextBase + uint32(i*4)
		if got := in.BranchTarget(pc); got != fwd {
			t.Errorf("inst %d (%s) target %#x want %#x", i, isa.Disasm(in, pc), got, fwd)
		}
	}
	for i := 6; i < 8; i++ {
		in := isa.Decode(p.Text[i])
		if got := in.BranchTarget(p.TextBase + uint32(i*4)); got != p.Symbols["main"] {
			t.Errorf("jump %d target %#x", i, got)
		}
	}
}

// TestListingReassembles feeds a full program listing line set back
// through the assembler (label lines stripped to comments aside, the
// listing's disassembly column must parse).
func TestListingReassembles(t *testing.T) {
	b := NewBuilder()
	b.Label("main")
	b.Li(isa.T0, 5)
	b.Addi(isa.T0, isa.T0, -1)
	b.Halt()
	p := b.MustAssemble()
	var src strings.Builder
	for i, w := range p.Text {
		in := isa.Decode(w)
		if in.Op.IsControl() {
			continue
		}
		fmt.Fprintln(&src, isa.Disasm(in, p.TextBase+uint32(i*4)))
	}
	if _, err := AssembleText(src.String()); err != nil {
		t.Fatalf("listing did not reassemble: %v\n%s", err, src.String())
	}
}
