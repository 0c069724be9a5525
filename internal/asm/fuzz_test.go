package asm

import (
	"testing"

	"tcsim/internal/isa"
)

// FuzzAssemble feeds arbitrary source text to the assembler: it returns
// a program or an error, never both or neither, and never panics. The
// seeds are every instruction form the round-trip test covers and a
// program with .data, .text and labels.
func FuzzAssemble(f *testing.F) {
	for _, in := range roundTripInsts {
		f.Add(isa.Disasm(in, 0) + "\nhalt\n")
	}
	f.Add(sampleSource)
	f.Fuzz(func(t *testing.T, src string) {
		p, err := AssembleText(src)
		if (p == nil) == (err == nil) {
			t.Fatalf("AssembleText returned program %v and error %v", p != nil, err)
		}
	})
}
