package tracestore

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"tcsim/internal/isa"
)

// TestDiskRoundTrip: a saved trace loads back with every column — and
// therefore every reconstructed record and the OUT stream — identical.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "compress")
	prog := w.Build()
	orig, err := Capture("compress", prog, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveTrace(dir, orig, prog, false); err != nil {
		t.Fatal(err)
	}
	got, file, err := loadTrace(dir, "compress", 5000, prog, false)
	if err != nil {
		t.Fatalf("load %s: %v", file, err)
	}
	if got == nil {
		t.Fatal("saved trace not found")
	}
	if got.Len() != orig.Len() || got.Complete() != orig.Complete() {
		t.Fatalf("shape mismatch: %d/%v vs %d/%v", got.Len(), got.Complete(), orig.Len(), orig.Complete())
	}
	origRep, gotRep := orig.NewReplay(), got.NewReplay()
	for i := uint64(0); i < orig.Len(); i++ {
		want, _ := origRep.At(i)
		rec, _ := gotRep.At(i)
		if !reflect.DeepEqual(want, rec) {
			t.Fatalf("record %d differs:\n  orig %+v\n  load %+v", i, want, rec)
		}
	}
	if !reflect.DeepEqual(orig.outAt, got.outAt) || !reflect.DeepEqual(orig.out, got.out) {
		t.Fatal("OUT stream differs after round trip")
	}
}

// TestDiskRejectsFailClosed: every corruption mode — flipped payload
// byte, wrong version, wrong magic, truncation, a different program
// image, a renamed key — must come back as the matching typed error, so
// the store falls back to live capture instead of replaying garbage.
func TestDiskRejectsFailClosed(t *testing.T) {
	dir := t.TempDir()
	w := mustWorkload(t, "compress")
	prog := w.Build()
	tr, err := Capture("compress", prog, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveTrace(dir, tr, prog, false); err != nil {
		t.Fatal(err)
	}
	file := traceFileName(dir, "compress", 2000)
	pristine, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(file, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	corrupt := func(name string, want error, mutate func(b []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			restore()
			b := append([]byte(nil), pristine...)
			if err := os.WriteFile(file, mutate(b), 0o644); err != nil {
				t.Fatal(err)
			}
			got, _, err := loadTrace(dir, "compress", 2000, prog, false)
			if got != nil || err == nil {
				t.Fatalf("corrupted load returned (%v, %v), want typed error", got, err)
			}
			if want != nil && !errors.Is(err, want) {
				t.Fatalf("error = %v, want %v", err, want)
			}
		})
	}

	corrupt("flipped-payload-byte", ErrBadChecksum, func(b []byte) []byte {
		b[len(b)/2] ^= 0x40
		return b
	})
	corrupt("bad-version", ErrBadVersion, func(b []byte) []byte {
		b[4] = 0xFF // version field follows the 4-byte magic
		return b
	})
	corrupt("bad-magic", ErrBadMagic, func(b []byte) []byte {
		b[0] = 'X'
		return b
	})
	corrupt("truncated", nil, func(b []byte) []byte {
		return b[:len(b)/3]
	})

	// A record's next PC and address are what the stream implies, and
	// its load/store flags are what its opcode implies; a file that says
	// otherwise is malformed, and each check names its contradiction.
	mid := tr.Len() / 2
	alu := mid
	for tr.staticInst[tr.si[alu]].Op.IsMem() {
		alu++
	}
	rec, _ := tr.NewReplay().At(mid)
	for f, put := range map[int]func(*encoder){
		fieldStatic: func(e *encoder) { e.uvarint(uint64(tr.si[mid])) },
		fieldNext:   func(e *encoder) { e.varint(int64(rec.NextPC) - int64(rec.PC+isa.InstBytes)) },
		fieldFlags:  func(e *encoder) { e.raw([]byte{tr.flags[mid]}) },
		fieldAddr:   func(e *encoder) { e.uvarint(uint64(rec.EA)) },
		fieldVal:    func(e *encoder) { e.uvarint(uint64(rec.Val)) },
	} {
		if !bytes.Equal(spliceRecord(t, pristine, mid, f, put), pristine) {
			t.Fatalf("splicing record %d's field %d with its own value changed the file", mid, f)
		}
	}
	implied := []struct {
		name, says string
		raw        []byte
	}{
		{"next-pc-not-following-pc", "next PC",
			spliceRecord(t, pristine, mid, fieldNext, func(e *encoder) { e.varint(1 << 20) })},
		{"address-on-non-memory-record", "no load or store",
			spliceRecord(t, pristine, alu, fieldAddr, func(e *encoder) { e.uvarint(0x1000) })},
		{"memory-flags-disagree-with-opcode", "disagree with its opcode",
			spliceRecord(t, pristine, alu, fieldFlags, func(e *encoder) { e.raw([]byte{tr.flags[alu] | flagLoad}) })},
	}
	for _, c := range implied {
		t.Run(c.name, func(t *testing.T) {
			got, err := decodeTrace(c.raw, "compress", 2000, prog)
			if got != nil || !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), c.says) {
				t.Fatalf("decode = (%v, %v), want ErrTruncated saying %q", got != nil, err, c.says)
			}
		})
	}

	t.Run("stale-program", func(t *testing.T) {
		restore()
		other := mustWorkload(t, "gcc").Build()
		got, _, err := loadTrace(dir, "compress", 2000, other, false)
		if got != nil || !errors.Is(err, ErrStaleProgram) {
			t.Fatalf("stale-program load = (%v, %v), want ErrStaleProgram", got, err)
		}
	})
	t.Run("key-mismatch", func(t *testing.T) {
		restore()
		if err := os.Rename(file, traceFileName(dir, "compress", 9999)); err != nil {
			t.Fatal(err)
		}
		got, _, err := loadTrace(dir, "compress", 9999, prog, false)
		if got != nil || !errors.Is(err, ErrKeyMismatch) {
			t.Fatalf("renamed-key load = (%v, %v), want ErrKeyMismatch", got, err)
		}
	})
}

// TestStoreDiskFailClosedToLiveCapture: with a corrupted file in the
// trace directory, Get still succeeds — by live capture — and counts
// the rejection; the repaired file then serves a disk load in a fresh
// store.
func TestStoreDiskFailClosedToLiveCapture(t *testing.T) {
	dir := t.TempDir()

	s1 := NewStore(0)
	s1.SetDir(dir)
	if _, out, err := s1.Get("compress", 2000); err != nil || out != OutcomeCapture {
		t.Fatalf("priming Get = (%v, %v)", out, err)
	}
	if st := s1.Stats(); st.DiskSaves != 1 {
		t.Fatalf("disk saves = %d, want 1", st.DiskSaves)
	}
	file := traceFileName(dir, "compress", 2000)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore(0)
	s2.SetDir(dir)
	var logged []error
	s2.RejectLog = func(_ string, err error) { logged = append(logged, err) }
	ent, out, err := s2.Get("compress", 2000)
	if err != nil || out != OutcomeCapture || ent == nil {
		t.Fatalf("Get over corrupt file = (%v, %v, %v), want live capture", ent, out, err)
	}
	st := s2.Stats()
	if st.DiskRejects != 1 || st.DiskLoads != 0 {
		t.Fatalf("rejects/loads = %d/%d, want 1/0", st.DiskRejects, st.DiskLoads)
	}
	if len(logged) != 1 || !errors.Is(logged[0], ErrBadChecksum) {
		t.Fatalf("reject log = %v, want one ErrBadChecksum", logged)
	}

	// The live capture re-persisted a valid file: a fresh store loads it.
	s3 := NewStore(0)
	s3.SetDir(dir)
	if _, out, err := s3.Get("compress", 2000); err != nil || out != OutcomeCapture {
		t.Fatalf("warm-restart Get = (%v, %v)", out, err)
	}
	if st := s3.Stats(); st.DiskLoads != 1 {
		t.Fatalf("warm restart disk loads = %d, want 1", st.DiskLoads)
	}
}

// The fields of one encoded record, in file order.
const (
	fieldStatic = iota // uvarint static index
	fieldNext          // varint next PC, as a delta against pc+4
	fieldFlags         // one flag byte
	fieldAddr          // uvarint effective address
	fieldVal           // uvarint value
)

// spliceRecord returns a copy of the encoded trace raw in which field f
// of record k holds what put encodes, with the CRC re-sealed, so the
// contradiction reaches the record decoder.
func spliceRecord(t testing.TB, raw []byte, k uint64, f int, put func(*encoder)) []byte {
	t.Helper()
	body := raw[:len(raw)-4]
	d := decoder{buf: body[len(diskMagic)+4:]}
	skip := func(read func() error) {
		t.Helper()
		if err := read(); err != nil {
			t.Fatal(err)
		}
	}
	uvarint := func() error { _, err := d.uvarint(); return err }
	varint := func() error { _, err := d.varint(); return err }
	byte1 := func() error { _, err := d.boolv(); return err }
	skip(func() error { _, err := d.bytes(); return err }) // name
	skip(uvarint)                                          // budget
	d.buf = d.buf[32:]                                     // program hash
	skip(byte1)                                            // halted
	nStatic, err := d.uvarint()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < nStatic; i++ {
		skip(varint)
		skip(uvarint)
	}
	skip(uvarint) // record count
	fields := []func() error{uvarint, varint, byte1, uvarint, uvarint}
	for i := uint64(0); ; i++ {
		for j, read := range fields {
			start := len(body) - len(d.buf)
			skip(read)
			if i == k && j == f {
				e := encoder{buf: append([]byte(nil), body[:start]...)}
				put(&e)
				e.raw(d.buf)
				e.u32le(crc32.ChecksumIEEE(e.buf))
				return e.buf
			}
		}
	}
}
