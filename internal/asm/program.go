// Package asm provides the toolchain for building TCR programs: a
// programmatic Builder used by the synthetic workload generators, a small
// text assembler for hand-written programs, and the loadable Program
// image consumed by the functional emulator and the timing simulator.
package asm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"tcsim/internal/isa"
)

// Default memory layout. Text and data live in disjoint regions; the
// stack grows down from StackTop. The layout mirrors a conventional MIPS
// process image.
const (
	TextBase uint32 = 0x00400000
	DataBase uint32 = 0x10000000
	StackTop uint32 = 0x7FFFF000
)

// maxData bounds the data section, so a .space or .align in source
// text cannot make the assembler allocate gigabytes (or panic on a
// size no slice can have). The bundled workloads use under 20 KiB.
const maxData = 16 << 20

// Program is a fully linked TCR executable image.
type Program struct {
	Entry    uint32            // initial PC
	TextBase uint32            // load address of Text
	Text     []isa.Word        // encoded instructions
	Insts    []isa.Inst        // Text decoded once: Insts[i] == isa.Decode(Text[i])
	DataBase uint32            // load address of Data
	Data     []byte            // initialized data section
	Symbols  map[string]uint32 // label -> address (text and data)
}

// TextEnd returns the first address past the text section.
func (p *Program) TextEnd() uint32 {
	return p.TextBase + uint32(len(p.Text))*isa.InstBytes
}

// Symbol looks up a label's address.
func (p *Program) Symbol(name string) (uint32, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// InstAt returns the decoded instruction at the given text address.
func (p *Program) InstAt(addr uint32) (isa.Inst, bool) {
	if addr < p.TextBase || addr >= p.TextEnd() || addr%isa.InstBytes != 0 {
		return isa.Inst{}, false
	}
	return p.Insts[(addr-p.TextBase)/isa.InstBytes], true
}

// Listing renders a disassembly listing of the text section with symbol
// annotations, for debugging and the tcasm tool.
func (p *Program) Listing() string {
	byAddr := make(map[uint32][]string)
	for name, addr := range p.Symbols {
		byAddr[addr] = append(byAddr[addr], name)
	}
	for _, names := range byAddr {
		sort.Strings(names)
	}
	var out []byte
	for i, w := range p.Text {
		addr := p.TextBase + uint32(i)*isa.InstBytes
		for _, name := range byAddr[addr] {
			out = append(out, fmt.Sprintf("%s:\n", name)...)
		}
		out = append(out, fmt.Sprintf("  %08x:  %08x  %s\n", addr, w, isa.Disasm(p.Insts[i], addr))...)
	}
	return string(out)
}

// Word32 reads a little-endian 32-bit word from the data image at the
// given data-section offset. It is a test convenience.
func (p *Program) Word32(off uint32) uint32 {
	return binary.LittleEndian.Uint32(p.Data[off : off+4])
}
