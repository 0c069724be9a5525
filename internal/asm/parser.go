package asm

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"tcsim/internal/isa"
)

// AssembleText assembles TCR assembly source into a linked program.
//
// Syntax (one statement per line; '#' or ';' starts a comment):
//
//	.text                 switch to the text section (default)
//	.data                 switch to the data section
//	label:                define a label in the current section
//	.word v, v, ...       emit 32-bit words, -2^31..2^32-1 (data section)
//	.byte v, v, ...       emit bytes (data section)
//	.space n              reserve n zero bytes (data section)
//	.align n              pad the data section to an n-byte boundary
//	.asciiz "s"           emit a NUL-terminated string (data section)
//
// Instruction operand forms:
//
//	add  rd, rs, rt       three-register ALU
//	addi rt, rs, imm      immediate ALU (also shifts: slli rt, rs, sh)
//	lui  rt, imm
//	lw   rt, off(base)    displacement memory
//	lwx  rd, idx(base)    indexed memory
//	beq  rs, rt, label    branches take a label, never a number
//	blez rs, label
//	j    label            jumps take a label
//	jr   rs / jalr rd, rs
//	out  rs / halt / nop
//
// Pseudo-instructions: move rd, rs · li rd, imm32 (-2^31..2^32-1) ·
// la rd, label · b label · ret.
func AssembleText(src string) (*Program, error) {
	b := NewBuilder()
	inData := false
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly several) at the start of the line.
		for {
			i := strings.Index(line, ":")
			if i < 0 || strings.ContainsAny(line[:i], " \t\",") {
				break
			}
			name := strings.TrimSpace(line[:i])
			if name == "" {
				return nil, fmt.Errorf("asm: line %d: empty label", ln+1)
			}
			if inData {
				b.DataLabel(name)
			} else {
				b.Label(name)
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := parseStatement(b, line, &inData); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", ln+1, err)
		}
	}
	return b.Assemble()
}

func parseStatement(b *Builder, line string, inData *bool) error {
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	mnemonic = strings.ToLower(mnemonic)

	if strings.HasPrefix(mnemonic, ".") {
		return parseDirective(b, mnemonic, rest, inData)
	}
	if *inData {
		return fmt.Errorf("instruction %q in .data section", mnemonic)
	}
	return parseInstruction(b, mnemonic, rest)
}

func parseDirective(b *Builder, dir, rest string, inData *bool) error {
	switch dir {
	case ".text":
		*inData = false
	case ".data":
		*inData = true
	case ".word", ".byte":
		if !*inData {
			return fmt.Errorf("%s outside .data", dir)
		}
		for _, f := range splitOperands(rest) {
			v, err := parseInt(f)
			if err != nil {
				return err
			}
			if dir == ".word" {
				w, err := word32(dir, v)
				if err != nil {
					return err
				}
				b.Word(w)
			} else {
				if v < -128 || v > 255 {
					return fmt.Errorf(".byte value %d out of range", v)
				}
				b.Byte(byte(v))
			}
		}
	case ".space":
		n, err := parseInt(rest)
		if err != nil || n < 0 {
			return fmt.Errorf("bad .space size %q", rest)
		}
		b.Space(int(n))
	case ".align":
		n, err := parseInt(rest)
		if err != nil {
			return fmt.Errorf("bad .align %q", rest)
		}
		b.Align(int(n))
	case ".asciiz", ".ascii":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return fmt.Errorf("bad string %s: %v", rest, err)
		}
		b.Byte([]byte(s)...)
		if dir == ".asciiz" {
			b.Byte(0)
		}
	default:
		return fmt.Errorf("unknown directive %q", dir)
	}
	return nil
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return v, nil
}

// word32 narrows v to a 32-bit word, read as signed or unsigned, so
// -1 and 0xFFFFFFFF are the same word; a wider value is an error, not
// its low 32 bits.
func word32(what string, v int64) (int32, error) {
	if v < math.MinInt32 || v > math.MaxUint32 {
		return 0, fmt.Errorf("%s value %d out of range", what, v)
	}
	return int32(v), nil
}

// checkTarget rejects a number as a branch or jump target, which is
// always a label: the number would be looked up as an undefined label.
func checkTarget(mnemonic, target string) error {
	if _, err := strconv.ParseInt(target, 0, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		return fmt.Errorf("%s target %s is a number; %s takes a label", mnemonic, target, mnemonic)
	}
	return nil
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "$")
	r, ok := isa.RegByName(strings.ToLower(s))
	if !ok {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return r, nil
}

// parseMemOperand parses "off(base)" or "(base)" or "idx(base)" forms.
func parseMemOperand(s string) (inner string, outer string, err error) {
	s = strings.TrimSpace(s)
	i := strings.Index(s, "(")
	if i < 0 || !strings.HasSuffix(s, ")") {
		return "", "", fmt.Errorf("bad memory operand %q", s)
	}
	return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1 : len(s)-1]), nil
}

func parseInstruction(b *Builder, mnemonic, rest string) error {
	ops := splitOperands(rest)
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s expects %d operands, got %d", mnemonic, n, len(ops))
		}
		return nil
	}

	switch mnemonic {
	case "nop":
		if err := need(0); err != nil {
			return err
		}
		b.Nop()
		return nil
	case "halt":
		if err := need(0); err != nil {
			return err
		}
		b.Halt()
		return nil
	case "ret":
		if err := need(0); err != nil {
			return err
		}
		b.Ret()
		return nil
	case "out":
		if err := need(1); err != nil {
			return err
		}
		r, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.Out(r)
		return nil
	case "jr":
		if err := need(1); err != nil {
			return err
		}
		r, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.Jr(r)
		return nil
	case "jalr":
		if err := need(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		b.Jalr(rd, rs)
		return nil
	case "j", "jal", "b":
		if err := need(1); err != nil {
			return err
		}
		if err := checkTarget(mnemonic, ops[0]); err != nil {
			return err
		}
		switch mnemonic {
		case "j":
			b.J(ops[0])
		case "jal":
			b.Jal(ops[0])
		case "b":
			b.B(ops[0])
		}
		return nil
	case "move":
		if err := need(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		b.Move(rd, rs)
		return nil
	case "li":
		if err := need(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		v, err := parseInt(ops[1])
		if err != nil {
			return err
		}
		w, err := word32(mnemonic, v)
		if err != nil {
			return err
		}
		b.Li(rd, w)
		return nil
	case "la":
		if err := need(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		b.La(rd, ops[1])
		return nil
	case "lui":
		if err := need(2); err != nil {
			return err
		}
		rt, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		v, err := parseInt(ops[1])
		if err != nil {
			return err
		}
		w, err := word32(mnemonic, v)
		if err != nil {
			return err
		}
		b.Lui(rt, w)
		return nil
	}

	op, ok := isa.OpByName(mnemonic)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}

	switch {
	case op.IsCondBranch():
		var rs, rt isa.Reg
		var target string
		var err error
		switch op {
		case isa.BEQ, isa.BNE:
			if err = need(3); err != nil {
				return err
			}
			if rs, err = parseReg(ops[0]); err != nil {
				return err
			}
			if rt, err = parseReg(ops[1]); err != nil {
				return err
			}
			target = ops[2]
		default:
			if err = need(2); err != nil {
				return err
			}
			if rs, err = parseReg(ops[0]); err != nil {
				return err
			}
			target = ops[1]
		}
		if err = checkTarget(mnemonic, target); err != nil {
			return err
		}
		b.Branch(op, rs, rt, target)
		return nil

	case op == isa.LWX || op == isa.SWX:
		if err := need(2); err != nil {
			return err
		}
		r0, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		idx, base, err := parseMemOperand(ops[1])
		if err != nil {
			return err
		}
		ri, err := parseReg(idx)
		if err != nil {
			return err
		}
		rb, err := parseReg(base)
		if err != nil {
			return err
		}
		if op == isa.LWX {
			b.Lwx(r0, rb, ri)
		} else {
			b.Swx(r0, rb, ri)
		}
		return nil

	case op.IsMem():
		if err := need(2); err != nil {
			return err
		}
		rt, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		offs, base, err := parseMemOperand(ops[1])
		if err != nil {
			return err
		}
		var off int32
		if offs != "" {
			v, err := parseInt(offs)
			if err != nil {
				return err
			}
			if off, err = word32(mnemonic+" offset", v); err != nil {
				return err
			}
		}
		rb, err := parseReg(base)
		if err != nil {
			return err
		}
		b.Mem(op, rt, rb, off)
		return nil

	default:
		if len(ops) != 3 {
			return fmt.Errorf("%s expects 3 operands, got %d", mnemonic, len(ops))
		}
		r0, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		r1, err := parseReg(ops[1])
		if err != nil {
			return err
		}
		switch op {
		case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.NOR, isa.SLT,
			isa.SLTU, isa.SLLV, isa.SRLV, isa.SRAV, isa.MUL, isa.DIV:
			r2, err := parseReg(ops[2])
			if err != nil {
				return fmt.Errorf("%s expects a register third operand: %v", mnemonic, err)
			}
			b.Op3(op, r0, r1, r2)
			return nil
		case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI, isa.SLTIU,
			isa.SLLI, isa.SRLI, isa.SRAI:
			v, err := parseInt(ops[2])
			if err != nil {
				return fmt.Errorf("%s expects an immediate third operand: %v", mnemonic, err)
			}
			imm, err := word32(mnemonic, v)
			if err != nil {
				return err
			}
			b.OpI(op, r0, r1, imm)
			return nil
		default:
			return fmt.Errorf("unsupported mnemonic %q", mnemonic)
		}
	}
}
