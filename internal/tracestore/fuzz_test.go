package tracestore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/workload"
)

// tinySource halts after a few dozen instructions, storing and writing
// OUT on the way: a full capture of it is a small fuzz seed.
const tinySource = `
.data
buf: .space 16
.text
main:
    li   t0, 5
    la   t1, buf
loop:
    sw   t0, 0(t1)
    out  t0
    addi t0, t0, -1
    bgtz t0, loop
    halt
`

// FuzzDecodeTrace feeds mutated trace files to the decoder: it returns a
// trace or an error wrapping one of the typed reject reasons, never
// panics, and allocates in proportion to its input. Each input's CRC-32
// trailer is re-sealed over its mutated body, and the input is decoded
// against the workload and budget its own header names, so mutations
// reach the header, payload and checkpoint parsers instead of stopping
// at the checksum or the key check. The seeds are a full capture of a
// small program and a one-checkpoint log of m88ksim, which carries a
// dirtied page; both are small, so the fuzzer minimizes quickly.
// testdata/fuzz/FuzzDecodeTrace keeps an input for each reject reason a
// fuzzing run reached, and one for each record field that contradicts
// what the stream implies (next PC, address, load/store flags).
func FuzzDecodeTrace(f *testing.F) {
	progs := map[string]*asm.Program{}
	seed := func(tr *Trace, err error, prog *asm.Program) {
		if err != nil {
			f.Fatal(err)
		}
		progs[tr.Name()] = prog
		f.Add(encodeTrace(tr, prog))
	}
	tiny, err := asm.AssembleText(tinySource)
	if err != nil {
		f.Fatal(err)
	}
	small, err := Capture("tiny", tiny, 1000)
	seed(small, err, tiny)
	w, ok := workload.ByName("m88ksim")
	if !ok {
		f.Fatal("no m88ksim workload")
	}
	prog := w.Build()
	log, err := CaptureCheckpointLog(w.Name, prog, CheckpointInterval(0))
	seed(log, err, prog)
	if log.Checkpoints() != 1 || len(log.ckptPN) == 0 {
		f.Fatalf("checkpoint log seed has %d checkpoints and %d pages, want 1 and some", log.Checkpoints(), len(log.ckptPN))
	}
	typed := []error{ErrBadMagic, ErrBadVersion, ErrBadChecksum, ErrStaleProgram,
		ErrKeyMismatch, ErrTruncated, ErrBadCheckpoint}
	f.Fuzz(func(t *testing.T, in []byte) {
		raw := append([]byte(nil), in...)
		if len(raw) >= 4 {
			body := raw[:len(raw)-4]
			binary.LittleEndian.PutUint32(raw[len(body):], crc32.ChecksumIEEE(body))
		}
		name, budget := headerKey(raw)
		prog, ok := progs[name]
		if !ok {
			prog = tiny
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := decodeTrace(raw, name, budget, prog)
		runtime.ReadMemStats(&after)
		if (tr == nil) == (err == nil) {
			t.Fatalf("decodeTrace returned trace %v and error %v", tr != nil, err)
		}
		if err != nil {
			matched := false
			for _, want := range typed {
				matched = matched || errors.Is(err, want)
			}
			if !matched {
				t.Fatalf("decodeTrace error %q wraps no typed reject reason", err)
			}
		}
		// Every count-sized allocation is bounded by the bytes left to
		// decode; 64 bytes per input byte is several times the widest.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(raw))+64<<10; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, over %d", len(raw), alloc, bound)
		}
	})
}

// headerKey reads the workload name and budget a trace's header names,
// or returns zero values if the header does not parse.
func headerKey(raw []byte) (string, uint64) {
	if len(raw) < len(diskMagic)+4 {
		return "", 0
	}
	d := decoder{buf: raw[len(diskMagic)+4:]}
	name, err := d.bytes()
	if err != nil {
		return "", 0
	}
	budget, err := d.uvarint()
	if err != nil {
		return "", 0
	}
	return string(name), budget
}
