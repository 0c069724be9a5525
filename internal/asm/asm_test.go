package asm

import (
	"strings"
	"testing"

	"tcsim/internal/isa"
)

func TestBuilderBasicProgram(t *testing.T) {
	b := NewBuilder()
	b.Label("main")
	b.Li(isa.T0, 10)
	b.Label("loop")
	b.Addi(isa.T0, isa.T0, -1)
	b.Bne(isa.T0, isa.R0, "loop")
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != TextBase {
		t.Errorf("entry = %#x want %#x", p.Entry, TextBase)
	}
	if len(p.Text) != 4 {
		t.Fatalf("text length = %d", len(p.Text))
	}
	bne := isa.Decode(p.Text[2])
	if bne.Op != isa.BNE || bne.Imm != -2 {
		t.Errorf("bne = %v (imm %d), want offset -2", bne, bne.Imm)
	}
	if _, ok := p.Symbol("loop"); !ok {
		t.Error("loop symbol missing")
	}
}

func TestBuilderForwardReference(t *testing.T) {
	b := NewBuilder()
	b.Label("main")
	b.Beq(isa.R0, isa.R0, "end")
	b.Addi(isa.T0, isa.T0, 1)
	b.Label("end")
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	beq := isa.Decode(p.Text[0])
	if beq.Imm != 1 {
		t.Errorf("forward branch offset = %d, want 1", beq.Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.J("nowhere")
	if _, err := b.Assemble(); err == nil {
		t.Error("undefined label should fail assembly")
	}
}

func TestBuilderRedefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Nop()
	b.Label("x")
	b.Halt()
	if _, err := b.Assemble(); err == nil {
		t.Error("redefined label should fail assembly")
	}
}

func TestBuilderDataSection(t *testing.T) {
	b := NewBuilder()
	b.DataLabel("tbl")
	addr := b.Word(1, 2, 3)
	if addr != DataBase {
		t.Errorf("first word at %#x", addr)
	}
	b.Byte(0xAA)
	b.Align(4)
	sp := b.Space(8)
	if sp%4 != 0 {
		t.Errorf("space not aligned: %#x", sp)
	}
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if p.Word32(0) != 1 || p.Word32(4) != 2 || p.Word32(8) != 3 {
		t.Error("data words wrong")
	}
	if p.Data[12] != 0xAA {
		t.Error("data byte wrong")
	}
	if got := p.Symbols["tbl"]; got != DataBase {
		t.Errorf("tbl = %#x", got)
	}
	if len(p.Data) != 24 {
		t.Errorf("data length = %d, want 24", len(p.Data))
	}
}

func TestBuilderLi(t *testing.T) {
	cases := []struct {
		v    int32
		insn int
	}{
		{0, 1}, {100, 1}, {-5, 1}, {32767, 1}, {-32768, 1},
		{0xFFFF, 1}, {0x10000, 1}, {0x12345678, 2}, {-2000000, 2},
	}
	for _, c := range cases {
		b := NewBuilder()
		b.Li(isa.T0, c.v)
		b.Halt()
		p, err := b.Assemble()
		if err != nil {
			t.Fatalf("li %d: %v", c.v, err)
		}
		if len(p.Text)-1 != c.insn {
			t.Errorf("li %d used %d instructions, want %d", c.v, len(p.Text)-1, c.insn)
		}
	}
}

func TestBuilderLa(t *testing.T) {
	b := NewBuilder()
	b.La(isa.T0, "buf")
	b.Halt()
	b.DataLabel("buf")
	b.Space(4)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	lui := isa.Decode(p.Text[0])
	ori := isa.Decode(p.Text[1])
	addr := uint32(uint16(lui.Imm))<<16 | uint32(uint16(ori.Imm))
	if addr != DataBase {
		t.Errorf("la materialized %#x want %#x", addr, DataBase)
	}
}

func TestBuilderBranchRange(t *testing.T) {
	b := NewBuilder()
	b.Label("top")
	for i := 0; i < 40000; i++ {
		b.Nop()
	}
	b.B("top")
	if _, err := b.Assemble(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("expected branch range error, got %v", err)
	}
}

func TestBuilderEntryIsMain(t *testing.T) {
	b := NewBuilder()
	b.Nop()
	b.Label("main")
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != TextBase+4 {
		t.Errorf("entry = %#x", p.Entry)
	}
}

func TestInstAt(t *testing.T) {
	b := NewBuilder()
	b.Addi(isa.T0, isa.R0, 7)
	b.Halt()
	p := b.MustAssemble()
	in, ok := p.InstAt(TextBase)
	if !ok || in.Op != isa.ADDI || in.Imm != 7 {
		t.Errorf("InstAt = %v,%v", in, ok)
	}
	if _, ok := p.InstAt(TextBase - 4); ok {
		t.Error("InstAt before text should fail")
	}
	if _, ok := p.InstAt(p.TextEnd()); ok {
		t.Error("InstAt past text should fail")
	}
	if _, ok := p.InstAt(TextBase + 2); ok {
		t.Error("unaligned InstAt should fail")
	}
}

const sampleSource = `
# sample program
.data
arr:    .word 4, 5, 6
msg:    .asciiz "hi"
buf:    .space 16
        .align 4
.text
main:
    la   t1, arr
    li   t0, 3          ; counter
    move s0, zero
loop:
    lw   t2, 0(t1)
    add  s0, s0, t2
    addi t1, t1, 4
    addi t0, t0, -1
    bgtz t0, loop
    slli t3, s0, 2
    lwx  t4, t3(t1)
    swx  t4, t3(t1)
    jal  fn
    b    done
fn:
    ret
done:
    halt
`

func TestAssembleText(t *testing.T) {
	p, err := AssembleText(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	if p.Word32(0) != 4 || p.Word32(4) != 5 || p.Word32(8) != 6 {
		t.Error("array data wrong")
	}
	msg, ok := p.Symbol("msg")
	if !ok || string(p.Data[msg-DataBase:msg-DataBase+3]) != "hi\x00" {
		t.Error("asciiz wrong")
	}
	if p.Entry == 0 {
		t.Error("entry missing")
	}
	// Spot check a couple of instructions.
	main := p.Symbols["main"]
	in, _ := p.InstAt(main + 8) // li t0, 3
	if in.Op != isa.ADDI || in.Rt != isa.T0 || in.Imm != 3 {
		t.Errorf("li decoded to %v", in)
	}
	in, _ = p.InstAt(main + 12) // move s0, zero
	if src, isMove := in.MoveSource(); !isMove || src != isa.R0 {
		t.Errorf("move decoded to %v", in)
	}
	listing := p.Listing()
	if !strings.Contains(listing, "main:") || !strings.Contains(listing, "addi t0, zero, 3") {
		t.Error("listing missing expected content")
	}
}

func TestAssembleTextErrors(t *testing.T) {
	bad := []string{
		"bogus t0, t1, t2",
		"addi t0, t1",
		"add t0, t1, 5",
		"addi t0, t1, t2",
		"lw t0, t1",
		".data\nx: .word zzz",
		".word 1",
		"li t0",
		"beq t0, loop",
		"jr",
		".quux 4",
		".data\n.byte 999",
		"addi t9, q5, 1",
	}
	for _, src := range bad {
		if _, err := AssembleText(src); err == nil {
			t.Errorf("source %q should fail", src)
		}
	}
}

// TestAssembleTextRejectsWhatItCannotEncode: a number where a branch or
// jump takes a label, and a .word, li, lui, immediate ALU or memory
// offset value wider than 32 bits, are errors that say so, not an
// undefined label or the value's low 32 bits.
func TestAssembleTextRejectsWhatItCannotEncode(t *testing.T) {
	for src, want := range map[string]string{
		"beq t0, t1, 1":                      "beq target 1 is a number; beq takes a label",
		"blez t0, -2":                        "blez target -2 is a number; blez takes a label",
		"b 0x10":                             "b target 0x10 is a number; b takes a label",
		"j 99999999999999999999":             "j target 99999999999999999999 is a number; j takes a label",
		".data\n.word 4294967297":            ".word value 4294967297 out of range",
		".data\n.word 1, -2147483649":        ".word value -2147483649 out of range",
		"li t0, 4294967298":                  "li value 4294967298 out of range",
		"li t0, 4294967296":                  "li value 4294967296 out of range",
		"li t0, -2147483649":                 "li value -2147483649 out of range",
		".data\n.word 0x7fffffffffffffff, 1": ".word value 9223372036854775807 out of range",
		"addi t0, t1, 4294967297":            "addi value 4294967297 out of range",
		"lui t0, 4294967297":                 "lui value 4294967297 out of range",
		"lw t0, 4294967300(t1)":              "lw offset value 4294967300 out of range",
	} {
		_, err := AssembleText(src + "\nhalt\n")
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one containing %q", src, err, want)
		}
	}

	// The edges of the range are words, signed or unsigned.
	p, err := AssembleText(`
.data
w: .word -2147483648, 4294967295
.text
main:
    li t0, -2147483648
    li t1, 4294967295
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Word32(0) != 0x80000000 || p.Word32(4) != 0xFFFFFFFF {
		t.Errorf(".word edges stored %#x, %#x", p.Word32(0), p.Word32(4))
	}
	// li t0, -2^31 is lui t0, 0x8000 alone; li t1, -1 is one addi.
	if in, _ := p.InstAt(p.Entry); in.Op != isa.LUI || in.Rt != isa.T0 || in.Imm != -0x8000 {
		t.Errorf("li t0, -2147483648 assembled to %v", in)
	}
	if in, _ := p.InstAt(p.Entry + 4); in.Op != isa.ADDI || in.Rt != isa.T1 || in.Imm != -1 {
		t.Errorf("li t1, 4294967295 assembled to %v", in)
	}
}

func TestAssembleTextRoundTripThroughListing(t *testing.T) {
	p, err := AssembleText(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Text) == 0 {
		t.Fatal("empty text")
	}
	for i, w := range p.Text {
		in := isa.Decode(w)
		if in.Op == isa.BAD {
			t.Errorf("instruction %d decodes BAD", i)
		}
	}
}
