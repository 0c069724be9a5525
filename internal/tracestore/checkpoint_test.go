package tracestore

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"tcsim/internal/emu"
)

// TestMachineAtMatchesEmulation: restoring the nearest checkpoint and
// stepping the remainder must land on exactly the machine plain
// emulation reaches — and keep producing identical records afterwards,
// which exercises registers, memory pages and the OUT stream together.
func TestMachineAtMatchesEmulation(t *testing.T) {
	w := mustWorkload(t, "compress")
	prog := w.Build()
	const budget = 100_000
	tr, err := Capture("compress", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Checkpoints() == 0 {
		t.Fatalf("no checkpoints captured at budget %d (interval %d)", budget, CheckpointInterval(budget))
	}
	for _, seq := range []uint64{0, 1, 40_000, 70_000, 99_999} {
		m, err := tr.MachineAt(prog, seq)
		if err != nil {
			t.Fatalf("MachineAt(%d): %v", seq, err)
		}
		ref := emu.New(prog)
		for ref.Steps < seq {
			if _, err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if m.Steps != ref.Steps || m.PC != ref.PC || m.Reg != ref.Reg {
			t.Fatalf("seq %d: restored (steps %d pc %#x) vs emulated (steps %d pc %#x), regs equal %v",
				seq, m.Steps, m.PC, ref.Steps, ref.PC, m.Reg == ref.Reg)
		}
		if !bytes.Equal(m.Output, ref.Output) {
			t.Fatalf("seq %d: OUT stream differs (%d vs %d bytes)", seq, len(m.Output), len(ref.Output))
		}
		// Divergence in any unrestored memory page would surface in the
		// record stream within a few thousand instructions.
		for i := 0; i < 2_000; i++ {
			a, errA := m.Step()
			b, errB := ref.Step()
			if errA != nil || errB != nil {
				t.Fatalf("seq %d step %d: errs %v / %v", seq, i, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seq %d diverges %d insts after restore:\n  ckpt %+v\n  emu  %+v", seq, i, a, b)
			}
		}
	}
}

// TestCheckpointLogShape: a checkpoint-only capture carries snapshots
// and the OUT stream but no per-instruction records, and costs a small
// fraction of a full trace.
func TestCheckpointLogShape(t *testing.T) {
	w := mustWorkload(t, "compress")
	prog := w.Build()
	const budget = 100_000
	log, err := CaptureCheckpointLog("compress", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 {
		t.Errorf("checkpoint log carries %d records, want 0", log.Len())
	}
	if log.Checkpoints() == 0 {
		t.Error("checkpoint log carries no checkpoints")
	}
	full, err := Capture("compress", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	if log.Bytes() > full.Bytes()/4 {
		t.Errorf("checkpoint log is %d bytes vs %d for the full trace; expected far smaller", log.Bytes(), full.Bytes())
	}
	if !reflect.DeepEqual(log.CheckpointSeqs(), full.CheckpointSeqs()) {
		t.Errorf("checkpoint positions differ: log %v, full %v", log.CheckpointSeqs(), full.CheckpointSeqs())
	}
}

// TestCkptSourceMatchesReplay: after any Seek, the records a checkpoint
// source serves are identical to the captured trace's — the seek only
// changes how the position was reached.
func TestCkptSourceMatchesReplay(t *testing.T) {
	w := mustWorkload(t, "compress")
	prog := w.Build()
	const budget = 200_000
	full, err := Capture("compress", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	log, err := CaptureCheckpointLog("compress", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	src := NewCkptSource(prog, log, 4096)
	rep := full.NewReplay()
	for _, target := range []uint64{100, 60_000, 61_000, 150_000, 199_000} {
		src.Seek(target)
		for seq := target; seq < target+500; seq++ {
			got, ok := src.At(seq)
			if !ok {
				t.Fatalf("ckpt source ended at %d", seq)
			}
			want, _ := rep.At(seq)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seek %d: record %d differs:\n  ckpt %+v\n  full %+v", target, seq, got, want)
			}
		}
		src.Release(target + 500)
	}
	if src.Seeks() != 5 {
		t.Errorf("seeks = %d, want 5", src.Seeks())
	}
	// 60_000→150_000 and →199_000 cross checkpoint boundaries (interval
	// 32768): at least those must restore rather than step the gap.
	if src.CheckpointRestores() < 2 {
		t.Errorf("checkpoint restores = %d, want >= 2", src.CheckpointRestores())
	}
}

// refixCRC recomputes the trailing file CRC so chunk-level corruption
// reaches the chunk decoder instead of being masked by ErrBadChecksum.
func refixCRC(b []byte) []byte {
	body := b[:len(b)-4]
	sum := crc32.ChecksumIEEE(body)
	b[len(b)-4] = byte(sum)
	b[len(b)-3] = byte(sum >> 8)
	b[len(b)-2] = byte(sum >> 16)
	b[len(b)-1] = byte(sum >> 24)
	return b
}

// TestCheckpointChunkFailClosed mirrors TestDiskRejectsFailClosed for
// the TCCK chunk: a corrupted, stale-version, or truncated checkpoint
// chunk rejects with ErrBadCheckpoint (naming the chunk) even when the
// file-level CRC has been recomputed over the damage.
func TestCheckpointChunkFailClosed(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "compress")
	prog := w.Build()
	const budget = 100_000
	tr, err := Capture("compress", prog, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveTrace(dir, tr, prog, false); err != nil {
		t.Fatal(err)
	}
	file := traceFileName(dir, "compress", budget)
	pristine, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	ckptOff := bytes.LastIndex(pristine, []byte(ckptMagic))
	if ckptOff < 0 {
		t.Fatal("no TCCK chunk in saved v2 trace")
	}

	corrupt := func(name string, mutate func(b []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := mutate(append([]byte(nil), pristine...))
			if err := os.WriteFile(file, refixCRC(b), 0o644); err != nil {
				t.Fatal(err)
			}
			got, _, err := loadTrace(dir, "compress", budget, prog, false)
			if got != nil || !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("load = (%v, %v), want ErrBadCheckpoint", got, err)
			}
			if !strings.Contains(err.Error(), ckptMagic) {
				t.Fatalf("error %q does not name the %s chunk", err, ckptMagic)
			}
		})
	}

	corrupt("missing-magic", func(b []byte) []byte {
		b[ckptOff] = 'X'
		return b
	})
	corrupt("stale-chunk-version", func(b []byte) []byte {
		b[ckptOff+len(ckptMagic)] = 0x7F // uvarint 127 != ckptChunkVersion
		return b
	})
	corrupt("truncated-chunk", func(b []byte) []byte {
		return b[: len(b)-32 : len(b)-32]
	})
	corrupt("corrupt-count", func(b []byte) []byte {
		// Blow up the checkpoint count so the chunk overruns the payload.
		i := ckptOff + len(ckptMagic) + 1
		b[i], b[i+1], b[i+2] = 0xFF, 0xFF, 0x7F
		return b
	})
}

// TestStoreCheckpointLogFailClosedToLiveCapture: a damaged .tcckpt file
// is rejected (reject-log line naming the TCCK chunk), the store falls
// back to a live checkpoint capture, and the re-persisted file serves a
// clean disk load on the next cold start.
func TestStoreCheckpointLogFailClosedToLiveCapture(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	const budget = 100_000

	s1 := NewStore(0)
	s1.SetDir(dir)
	if _, out, err := s1.GetCheckpointLog(ctx, "compress", budget); err != nil || out != OutcomeCapture {
		t.Fatalf("priming GetCheckpointLog = (%v, %v)", out, err)
	}
	file := ckptFileName(dir, "compress", budget)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	off := bytes.LastIndex(raw, []byte(ckptMagic))
	if off < 0 {
		t.Fatal("no TCCK chunk in saved checkpoint log")
	}
	raw[off+len(ckptMagic)] = 0x7F
	if err := os.WriteFile(file, refixCRC(raw), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore(0)
	s2.SetDir(dir)
	var files []string
	var logged []error
	s2.RejectLog = func(f string, err error) { files = append(files, f); logged = append(logged, err) }
	ent, out, err := s2.GetCheckpointLog(ctx, "compress", budget)
	if err != nil || out != OutcomeCapture || ent == nil || ent.Trace.Checkpoints() == 0 {
		t.Fatalf("GetCheckpointLog over corrupt file = (%v, %v, %v), want live capture", ent, out, err)
	}
	if st := s2.Stats(); st.DiskRejects != 1 {
		t.Fatalf("disk rejects = %d, want 1", st.DiskRejects)
	}
	if len(logged) != 1 || !errors.Is(logged[0], ErrBadCheckpoint) || !strings.Contains(logged[0].Error(), ckptMagic) {
		t.Fatalf("reject log = %v, want one ErrBadCheckpoint naming %s", logged, ckptMagic)
	}
	if len(files) != 1 || files[0] != file {
		t.Fatalf("reject log file = %v, want %s", files, file)
	}

	s3 := NewStore(0)
	s3.SetDir(dir)
	if _, _, err := s3.GetCheckpointLog(ctx, "compress", budget); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.DiskLoads != 1 || st.DiskRejects != 0 {
		t.Fatalf("warm restart loads/rejects = %d/%d, want 1/0", st.DiskLoads, st.DiskRejects)
	}
}

// TestCheckpointDiskRoundTrip: checkpoint columns survive the disk
// format bit-for-bit, for both full traces and checkpoint-only logs.
func TestCheckpointDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "compress")
	prog := w.Build()
	const budget = 100_000
	for _, tc := range []struct {
		name     string
		ckptOnly bool
	}{{"full-trace", false}, {"ckpt-log", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var orig *Trace
			var err error
			if tc.ckptOnly {
				orig, err = CaptureCheckpointLog("compress", prog, budget)
			} else {
				orig, err = Capture("compress", prog, budget)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := saveTrace(dir, orig, prog, tc.ckptOnly); err != nil {
				t.Fatal(err)
			}
			got, file, err := loadTrace(dir, "compress", budget, prog, tc.ckptOnly)
			if err != nil || got == nil {
				t.Fatalf("load %s: (%v, %v)", file, got, err)
			}
			if !reflect.DeepEqual(got.ckptSeq, orig.ckptSeq) ||
				!reflect.DeepEqual(got.ckptPC, orig.ckptPC) ||
				!reflect.DeepEqual(got.ckptOutLen, orig.ckptOutLen) ||
				!reflect.DeepEqual(got.ckptRegs, orig.ckptRegs) ||
				!reflect.DeepEqual(got.ckptPageIdx, orig.ckptPageIdx) ||
				!reflect.DeepEqual(got.ckptPN, orig.ckptPN) ||
				!bytes.Equal(got.ckptPages, orig.ckptPages) {
				t.Fatal("checkpoint columns differ after round trip")
			}
			m1, err := got.MachineAt(prog, budget-1)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := orig.MachineAt(prog, budget-1)
			if err != nil {
				t.Fatal(err)
			}
			if m1.Reg != m2.Reg || m1.PC != m2.PC || m1.Steps != m2.Steps {
				t.Fatal("restored machines differ after round trip")
			}
		})
	}
}
