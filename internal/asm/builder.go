package asm

import (
	"encoding/binary"
	"fmt"

	"tcsim/internal/isa"
)

// Builder assembles a TCR program instruction by instruction. Labels may
// be referenced before they are defined; all references are resolved at
// Assemble time. The zero Builder is not ready for use; call NewBuilder.
//
// Builder methods follow assembler operand order (destination first) and
// panic-free: errors are accumulated and reported by Assemble, so
// generator code can stay linear.
type Builder struct {
	text     []pending
	data     []byte
	labels   map[string]labelDef
	errs     []error
	dataMode bool
}

type labelDef struct {
	addr    uint32
	defined bool
}

// pending is an instruction whose label operand (if any) is unresolved.
type pending struct {
	inst  isa.Inst
	label string // branch/jump target or la symbol; "" if none
	kind  refKind
}

type refKind uint8

const (
	refNone   refKind = iota
	refBranch         // signed word offset from pc+4
	refJump           // 26-bit absolute word address
	refLUI            // upper 16 bits of symbol address
	refLo             // lower 16 bits of symbol address (as unsigned for ori)
)

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]labelDef)}
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() uint32 {
	return TextBase + uint32(len(b.text))*isa.InstBytes
}

// Here returns the current data-section address (for data emission).
func (b *Builder) Here() uint32 {
	return DataBase + uint32(len(b.data))
}

// Label defines name at the current text position.
func (b *Builder) Label(name string) {
	b.defineLabel(name, b.PC())
}

// DataLabel defines name at the current data position.
func (b *Builder) DataLabel(name string) {
	b.defineLabel(name, b.Here())
}

func (b *Builder) defineLabel(name string, addr uint32) {
	if d, ok := b.labels[name]; ok && d.defined {
		b.errorf("asm: label %q redefined", name)
		return
	}
	b.labels[name] = labelDef{addr: addr, defined: true}
}

// Emit appends a fully resolved instruction.
func (b *Builder) Emit(i isa.Inst) {
	b.text = append(b.text, pending{inst: i})
}

func (b *Builder) emitRef(i isa.Inst, label string, kind refKind) {
	b.text = append(b.text, pending{inst: i, label: label, kind: kind})
}

// --- three-register ALU ops ---

// Op3 emits a three-register ALU operation rd <- rs op rt.
func (b *Builder) Op3(op isa.Op, rd, rs, rt isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
}

func (b *Builder) Add(rd, rs, rt isa.Reg)  { b.Op3(isa.ADD, rd, rs, rt) }
func (b *Builder) Sub(rd, rs, rt isa.Reg)  { b.Op3(isa.SUB, rd, rs, rt) }
func (b *Builder) And(rd, rs, rt isa.Reg)  { b.Op3(isa.AND, rd, rs, rt) }
func (b *Builder) Or(rd, rs, rt isa.Reg)   { b.Op3(isa.OR, rd, rs, rt) }
func (b *Builder) Xor(rd, rs, rt isa.Reg)  { b.Op3(isa.XOR, rd, rs, rt) }
func (b *Builder) Nor(rd, rs, rt isa.Reg)  { b.Op3(isa.NOR, rd, rs, rt) }
func (b *Builder) Slt(rd, rs, rt isa.Reg)  { b.Op3(isa.SLT, rd, rs, rt) }
func (b *Builder) Sltu(rd, rs, rt isa.Reg) { b.Op3(isa.SLTU, rd, rs, rt) }
func (b *Builder) Sllv(rd, rs, rt isa.Reg) { b.Op3(isa.SLLV, rd, rs, rt) }
func (b *Builder) Srlv(rd, rs, rt isa.Reg) { b.Op3(isa.SRLV, rd, rs, rt) }
func (b *Builder) Srav(rd, rs, rt isa.Reg) { b.Op3(isa.SRAV, rd, rs, rt) }
func (b *Builder) Mul(rd, rs, rt isa.Reg)  { b.Op3(isa.MUL, rd, rs, rt) }
func (b *Builder) Div(rd, rs, rt isa.Reg)  { b.Op3(isa.DIV, rd, rs, rt) }

// --- immediate ALU ops ---

// OpI emits an immediate ALU operation rt <- rs op imm.
func (b *Builder) OpI(op isa.Op, rt, rs isa.Reg, imm int32) {
	b.Emit(isa.Inst{Op: op, Rt: rt, Rs: rs, Imm: imm})
}

func (b *Builder) Addi(rt, rs isa.Reg, imm int32)  { b.OpI(isa.ADDI, rt, rs, imm) }
func (b *Builder) Andi(rt, rs isa.Reg, imm int32)  { b.OpI(isa.ANDI, rt, rs, imm) }
func (b *Builder) Ori(rt, rs isa.Reg, imm int32)   { b.OpI(isa.ORI, rt, rs, imm) }
func (b *Builder) Xori(rt, rs isa.Reg, imm int32)  { b.OpI(isa.XORI, rt, rs, imm) }
func (b *Builder) Slti(rt, rs isa.Reg, imm int32)  { b.OpI(isa.SLTI, rt, rs, imm) }
func (b *Builder) Sltiu(rt, rs isa.Reg, imm int32) { b.OpI(isa.SLTIU, rt, rs, imm) }
func (b *Builder) Lui(rt isa.Reg, imm int32)       { b.Emit(isa.Inst{Op: isa.LUI, Rt: rt, Imm: imm}) }
func (b *Builder) Slli(rt, rs isa.Reg, sh int32)   { b.OpI(isa.SLLI, rt, rs, sh) }
func (b *Builder) Srli(rt, rs isa.Reg, sh int32)   { b.OpI(isa.SRLI, rt, rs, sh) }
func (b *Builder) Srai(rt, rs isa.Reg, sh int32)   { b.OpI(isa.SRAI, rt, rs, sh) }

// --- memory ops ---

// Mem emits a displacement-mode memory operation.
func (b *Builder) Mem(op isa.Op, rt, base isa.Reg, off int32) {
	b.Emit(isa.Inst{Op: op, Rt: rt, Rs: base, Imm: off})
}

func (b *Builder) Lw(rt, base isa.Reg, off int32)  { b.Mem(isa.LW, rt, base, off) }
func (b *Builder) Lh(rt, base isa.Reg, off int32)  { b.Mem(isa.LH, rt, base, off) }
func (b *Builder) Lhu(rt, base isa.Reg, off int32) { b.Mem(isa.LHU, rt, base, off) }
func (b *Builder) Lb(rt, base isa.Reg, off int32)  { b.Mem(isa.LB, rt, base, off) }
func (b *Builder) Lbu(rt, base isa.Reg, off int32) { b.Mem(isa.LBU, rt, base, off) }
func (b *Builder) Sw(rt, base isa.Reg, off int32)  { b.Mem(isa.SW, rt, base, off) }
func (b *Builder) Sh(rt, base isa.Reg, off int32)  { b.Mem(isa.SH, rt, base, off) }
func (b *Builder) Sb(rt, base isa.Reg, off int32)  { b.Mem(isa.SB, rt, base, off) }

// Lwx emits an indexed load rd <- mem32[base + index].
func (b *Builder) Lwx(rd, base, index isa.Reg) {
	b.Emit(isa.Inst{Op: isa.LWX, Rd: rd, Rs: base, Rt: index})
}

// Swx emits an indexed store mem32[base + index] <- data.
func (b *Builder) Swx(data, base, index isa.Reg) {
	b.Emit(isa.Inst{Op: isa.SWX, Rd: data, Rs: base, Rt: index})
}

// --- control flow ---

// Branch emits a conditional branch to label.
func (b *Builder) Branch(op isa.Op, rs, rt isa.Reg, label string) {
	if !op.IsCondBranch() {
		b.errorf("asm: Branch with non-branch op %v", op)
		return
	}
	b.emitRef(isa.Inst{Op: op, Rs: rs, Rt: rt}, label, refBranch)
}

func (b *Builder) Beq(rs, rt isa.Reg, label string) { b.Branch(isa.BEQ, rs, rt, label) }
func (b *Builder) Bne(rs, rt isa.Reg, label string) { b.Branch(isa.BNE, rs, rt, label) }
func (b *Builder) Blez(rs isa.Reg, label string)    { b.Branch(isa.BLEZ, rs, 0, label) }
func (b *Builder) Bgtz(rs isa.Reg, label string)    { b.Branch(isa.BGTZ, rs, 0, label) }
func (b *Builder) Bltz(rs isa.Reg, label string)    { b.Branch(isa.BLTZ, rs, 0, label) }
func (b *Builder) Bgez(rs isa.Reg, label string)    { b.Branch(isa.BGEZ, rs, 0, label) }

// B emits an unconditional PC-relative branch (beq zero, zero, label).
func (b *Builder) B(label string) { b.Beq(isa.R0, isa.R0, label) }

// J emits a direct jump to label.
func (b *Builder) J(label string) {
	b.emitRef(isa.Inst{Op: isa.J}, label, refJump)
}

// Jal emits a direct call to label.
func (b *Builder) Jal(label string) {
	b.emitRef(isa.Inst{Op: isa.JAL}, label, refJump)
}

// Jr emits an indirect jump through rs.
func (b *Builder) Jr(rs isa.Reg) { b.Emit(isa.Inst{Op: isa.JR, Rs: rs}) }

// Jalr emits an indirect call through rs, linking into rd.
func (b *Builder) Jalr(rd, rs isa.Reg) { b.Emit(isa.Inst{Op: isa.JALR, Rd: rd, Rs: rs}) }

// Ret emits a subroutine return (jr ra).
func (b *Builder) Ret() { b.Jr(isa.RA) }

// --- system ---

// Halt emits the program-terminating instruction.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.HALT}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP}) }

// Out emits an output of the low byte of rs.
func (b *Builder) Out(rs isa.Reg) { b.Emit(isa.Inst{Op: isa.OUT, Rs: rs}) }

// --- pseudo-instructions ---

// Move emits the canonical register move idiom addi rd <- rs + 0, which
// the fill unit's move optimization recognizes.
func (b *Builder) Move(rd, rs isa.Reg) { b.Addi(rd, rs, 0) }

// Li loads a 32-bit constant, using one instruction when it fits.
func (b *Builder) Li(rd isa.Reg, v int32) {
	if v >= -32768 && v <= 32767 {
		b.Addi(rd, isa.R0, v)
		return
	}
	if v >= 0 && v <= 0xFFFF {
		b.Ori(rd, isa.R0, v)
		return
	}
	b.Lui(rd, int32(int16(uint32(v)>>16)))
	if lo := v & 0xFFFF; lo != 0 {
		b.Ori(rd, rd, lo)
	}
}

// La loads the address of a label (text or data) into rd. It always
// expands to lui+ori so the reference can be fixed up after layout.
func (b *Builder) La(rd isa.Reg, label string) {
	b.emitRef(isa.Inst{Op: isa.LUI, Rt: rd}, label, refLUI)
	b.emitRef(isa.Inst{Op: isa.ORI, Rt: rd, Rs: rd}, label, refLo)
}

// --- data section ---

// Space reserves n zero bytes in the data section and returns their address.
func (b *Builder) Space(n int) uint32 {
	addr := b.Here()
	if n < 0 || n > maxData-len(b.data) {
		b.errorf("asm: Space(%d): the data section would exceed %d bytes", n, maxData)
		return addr
	}
	b.data = append(b.data, make([]byte, n)...)
	return addr
}

// Word appends 32-bit little-endian words to the data section and returns
// the address of the first.
func (b *Builder) Word(vals ...int32) uint32 {
	addr := b.Here()
	for _, v := range vals {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], uint32(v))
		b.data = append(b.data, w[:]...)
	}
	return addr
}

// Byte appends raw bytes to the data section and returns the address of
// the first.
func (b *Builder) Byte(vals ...byte) uint32 {
	addr := b.Here()
	b.data = append(b.data, vals...)
	return addr
}

// Align pads the data section to the given power-of-two boundary.
func (b *Builder) Align(n int) {
	if n <= 0 || n&(n-1) != 0 {
		b.errorf("asm: Align(%d): not a power of two", n)
		return
	}
	b.Space(-len(b.data) & (n - 1))
}

// Assemble resolves all label references and produces the linked program.
// Entry is the address of the "main" label if defined, else TextBase.
func (b *Builder) Assemble() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	p := &Program{
		TextBase: TextBase,
		DataBase: DataBase,
		Data:     append([]byte(nil), b.data...),
		Symbols:  make(map[string]uint32, len(b.labels)),
	}
	for name, d := range b.labels {
		if !d.defined {
			return nil, fmt.Errorf("asm: label %q referenced but never defined", name)
		}
		p.Symbols[name] = d.addr
	}
	p.Text = make([]isa.Word, len(b.text))
	p.Insts = make([]isa.Inst, len(b.text))
	for idx, pi := range b.text {
		inst := pi.inst
		if pi.kind != refNone {
			d, ok := b.labels[pi.label]
			if !ok || !d.defined {
				return nil, fmt.Errorf("asm: undefined label %q", pi.label)
			}
			pc := TextBase + uint32(idx)*isa.InstBytes
			switch pi.kind {
			case refBranch:
				off := (int64(d.addr) - int64(pc) - isa.InstBytes) / isa.InstBytes
				if off < -32768 || off > 32767 {
					return nil, fmt.Errorf("asm: branch to %q out of range (%d words)", pi.label, off)
				}
				inst.Imm = int32(off)
			case refJump:
				inst.Imm = int32(d.addr / isa.InstBytes)
			case refLUI:
				inst.Imm = int32(int16(d.addr >> 16))
			case refLo:
				inst.Imm = int32(d.addr & 0xFFFF)
			}
		}
		w, err := isa.Encode(inst)
		if err != nil {
			return nil, fmt.Errorf("asm: at %#x: %w", TextBase+uint32(idx)*isa.InstBytes, err)
		}
		p.Text[idx] = w
		p.Insts[idx] = isa.Decode(w)
	}
	p.Entry = p.TextBase
	if m, ok := p.Symbols["main"]; ok {
		p.Entry = m
	}
	return p, nil
}

// MustAssemble is Assemble but panics on error; for use by the built-in
// workload generators whose programs are constructed correct.
func (b *Builder) MustAssemble() *Program {
	p, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}
