package emu

import (
	"errors"
	"fmt"

	"tcsim/internal/asm"
	"tcsim/internal/isa"
)

// Record describes one retired (correct-path) dynamic instruction. The
// timing simulator uses it as ground truth for control flow and memory
// addressing while modelling speculation itself.
type Record struct {
	Seq    uint64   // 0-based dynamic instruction number
	PC     uint32   // address of the instruction
	Inst   isa.Inst // decoded instruction
	NextPC uint32   // architecturally next PC
	Taken  bool     // conditional branch outcome
	EA     uint32   // effective address for memory operations
	Store  bool     // instruction writes memory
	Load   bool     // instruction reads memory
	Val    uint32   // value written to the destination register, or stored
}

// Machine is the TCR architectural state.
type Machine struct {
	Mem    *Memory
	Reg    [isa.NumRegs]uint32
	PC     uint32
	Halted bool
	Steps  uint64 // dynamic instructions executed
	Output []byte // bytes emitted by OUT
}

// ErrBadInstruction is returned when execution reaches an undecodable word.
var ErrBadInstruction = errors.New("emu: illegal instruction")

// New creates a machine with the program loaded and registers initialized
// per the TCR startup convention: SP at the stack top, GP at the data
// base, all other registers zero, PC at the program entry. The memory's
// fetch table starts as a copy of the program's decoded text, so a store
// into the machine's text never reaches the shared program.
func New(p *asm.Program) *Machine {
	m := &Machine{Mem: NewMemory(), PC: p.Entry}
	for i, w := range p.Text {
		m.Mem.Write32(p.TextBase+uint32(i)*isa.InstBytes, w)
	}
	m.Mem.loadText(p.TextBase, append([]isa.Inst(nil), p.Insts...))
	m.Mem.WriteBytes(p.DataBase, p.Data)
	m.Reg[isa.SP] = asm.StackTop
	m.Reg[isa.GP] = p.DataBase
	return m
}

// Step executes one instruction and returns its Record. Calling Step on
// a halted machine returns an error.
func (m *Machine) Step() (Record, error) {
	if m.Halted {
		return Record{}, errors.New("emu: machine is halted")
	}
	pc := m.PC
	// Fetch from the memory's decoded text table. Only a PC outside the
	// text image, or misaligned within it, decodes the word in memory.
	// Kept inline: returned from a call that does not inline, the Inst
	// comes back in pieces and is reloaded whole, a store-forwarding
	// stall that costs about half of what the table saves.
	var inst isa.Inst
	if off := pc - m.Mem.textBase; off/isa.InstBytes < uint32(len(m.Mem.text)) && off%isa.InstBytes == 0 {
		inst = m.Mem.text[off/isa.InstBytes]
	} else {
		inst = isa.Decode(m.Mem.Read32(pc))
	}
	rec := Record{Seq: m.Steps, PC: pc, Inst: inst, NextPC: pc + isa.InstBytes}

	rs := m.Reg[inst.Rs]
	rt := m.Reg[inst.Rt]
	set := func(r isa.Reg, v uint32) {
		rec.Val = v
		if r != isa.R0 {
			m.Reg[r] = v
		}
	}

	switch inst.Op {
	case isa.NOP:
	case isa.ADD:
		set(inst.Rd, rs+rt)
	case isa.SUB:
		set(inst.Rd, rs-rt)
	case isa.AND:
		set(inst.Rd, rs&rt)
	case isa.OR:
		set(inst.Rd, rs|rt)
	case isa.XOR:
		set(inst.Rd, rs^rt)
	case isa.NOR:
		set(inst.Rd, ^(rs | rt))
	case isa.SLT:
		set(inst.Rd, boolTo(int32(rs) < int32(rt)))
	case isa.SLTU:
		set(inst.Rd, boolTo(rs < rt))
	case isa.SLLV:
		set(inst.Rd, rs<<(rt&31))
	case isa.SRLV:
		set(inst.Rd, rs>>(rt&31))
	case isa.SRAV:
		set(inst.Rd, uint32(int32(rs)>>(rt&31)))
	case isa.MUL:
		set(inst.Rd, rs*rt)
	case isa.DIV:
		if rt == 0 {
			set(inst.Rd, 0)
		} else {
			set(inst.Rd, uint32(int32(rs)/int32(rt)))
		}

	case isa.ADDI:
		set(inst.Rt, rs+uint32(inst.Imm))
	case isa.ANDI:
		set(inst.Rt, rs&uint32(inst.Imm))
	case isa.ORI:
		set(inst.Rt, rs|uint32(inst.Imm))
	case isa.XORI:
		set(inst.Rt, rs^uint32(inst.Imm))
	case isa.SLTI:
		set(inst.Rt, boolTo(int32(rs) < inst.Imm))
	case isa.SLTIU:
		set(inst.Rt, boolTo(rs < uint32(inst.Imm)))
	case isa.LUI:
		set(inst.Rt, uint32(inst.Imm)<<16)
	case isa.SLLI:
		set(inst.Rt, rs<<uint32(inst.Imm))
	case isa.SRLI:
		set(inst.Rt, rs>>uint32(inst.Imm))
	case isa.SRAI:
		set(inst.Rt, uint32(int32(rs)>>uint32(inst.Imm)))

	case isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW:
		ea := rs + uint32(inst.Imm)
		rec.EA, rec.Load = ea, true
		set(inst.Rt, m.load(inst.Op, ea))
	case isa.LWX:
		ea := rs + rt
		rec.EA, rec.Load = ea, true
		set(inst.Rd, m.Mem.Read32(ea))
	case isa.SB:
		ea := rs + uint32(inst.Imm)
		rec.EA, rec.Store, rec.Val = ea, true, rt
		m.Mem.Write8(ea, byte(rt))
	case isa.SH:
		ea := rs + uint32(inst.Imm)
		rec.EA, rec.Store, rec.Val = ea, true, rt
		m.Mem.Write16(ea, uint16(rt))
	case isa.SW:
		ea := rs + uint32(inst.Imm)
		rec.EA, rec.Store, rec.Val = ea, true, rt
		m.Mem.Write32(ea, rt)
	case isa.SWX:
		ea := rs + rt
		rec.EA, rec.Store, rec.Val = ea, true, m.Reg[inst.Rd]
		m.Mem.Write32(ea, m.Reg[inst.Rd])

	case isa.BEQ:
		rec.Taken = rs == rt
	case isa.BNE:
		rec.Taken = rs != rt
	case isa.BLEZ:
		rec.Taken = int32(rs) <= 0
	case isa.BGTZ:
		rec.Taken = int32(rs) > 0
	case isa.BLTZ:
		rec.Taken = int32(rs) < 0
	case isa.BGEZ:
		rec.Taken = int32(rs) >= 0

	case isa.J:
		rec.NextPC = inst.BranchTarget(pc)
	case isa.JAL:
		set(isa.RA, pc+isa.InstBytes)
		rec.NextPC = inst.BranchTarget(pc)
	case isa.JR:
		rec.NextPC = rs
	case isa.JALR:
		set(inst.Rd, pc+isa.InstBytes)
		rec.NextPC = rs

	case isa.HALT:
		m.Halted = true
	case isa.OUT:
		m.Output = append(m.Output, byte(rs))

	case isa.BAD:
		return rec, fmt.Errorf("%w at pc %#x (word %#08x)", ErrBadInstruction, pc, m.Mem.Read32(pc))
	}

	if inst.Op.IsCondBranch() && rec.Taken {
		rec.NextPC = inst.BranchTarget(pc)
	}
	m.PC = rec.NextPC
	m.Steps++
	return rec, nil
}

func (m *Machine) load(op isa.Op, ea uint32) uint32 {
	switch op {
	case isa.LB:
		return uint32(int32(int8(m.Mem.Read8(ea))))
	case isa.LBU:
		return uint32(m.Mem.Read8(ea))
	case isa.LH:
		return uint32(int32(int16(m.Mem.Read16(ea))))
	case isa.LHU:
		return uint32(m.Mem.Read16(ea))
	default:
		return m.Mem.Read32(ea)
	}
}

func boolTo(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run executes until HALT or until maxSteps instructions have retired.
// It returns the number of instructions executed and an error if the
// program did not halt or hit an illegal instruction.
func (m *Machine) Run(maxSteps uint64) (uint64, error) {
	start := m.Steps
	for !m.Halted {
		if m.Steps-start >= maxSteps {
			return m.Steps - start, fmt.Errorf("emu: exceeded %d steps without halting", maxSteps)
		}
		if _, err := m.Step(); err != nil {
			return m.Steps - start, err
		}
	}
	return m.Steps - start, nil
}
