package tracestore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"tcsim/internal/asm"
	"tcsim/internal/emu"
	"tcsim/internal/isa"
)

// On-disk trace format, version 2:
//
//	magic   "TCTR"            4 bytes
//	version uint32 LE         must equal formatVersion
//	header  (uvarint-framed)  name, budget, program hash, flags, counts
//	payload (varint columns)  static table, record columns, OUT stream
//	chunk   "TCCK"            checkpoint chunk: chunk version, count,
//	                          per-checkpoint seq/PC/outLen/registers and
//	                          dirtied-page deltas (raw page images)
//	crc32   uint32 LE         IEEE, over everything before it
//
// Any mismatch — magic, version, checksum, workload name, budget, the
// sha256 of the program image the trace was captured from, or a
// malformed checkpoint chunk — is a typed error; the store counts it,
// logs it, and falls back to live capture. A stale trace can therefore
// never be replayed silently. Version 1 files (no checkpoint chunk)
// reject with ErrBadVersion and are recaptured.

const diskMagic = "TCTR"
const formatVersion = 2

const (
	ckptMagic        = "TCCK"
	ckptChunkVersion = 1
)

// Typed reject reasons, surfaced in logs and asserted by the
// fail-closed fixture tests.
var (
	ErrBadMagic      = errors.New("tracestore: not a trace file (bad magic)")
	ErrBadVersion    = errors.New("tracestore: unsupported trace format version")
	ErrBadChecksum   = errors.New("tracestore: trace payload checksum mismatch")
	ErrStaleProgram  = errors.New("tracestore: trace was captured from a different program image")
	ErrKeyMismatch   = errors.New("tracestore: trace file does not match requested workload/budget")
	ErrTruncated     = errors.New("tracestore: trace file truncated or malformed")
	ErrBadCheckpoint = errors.New("tracestore: bad TCCK checkpoint chunk")
)

// programHash fingerprints the built program image: entry point, load
// addresses, text words, and initialized data. Symbols are label
// metadata and do not affect execution, so they are excluded.
func programHash(p *asm.Program) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:4], v)
		h.Write(b[:4])
	}
	put(p.Entry)
	put(p.TextBase)
	put(uint32(len(p.Text)))
	for _, w := range p.Text {
		put(uint32(w))
	}
	put(p.DataBase)
	put(uint32(len(p.Data)))
	h.Write(p.Data)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func traceFileName(dir, name string, budget uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.tctrace", name, budget))
}

// ckptFileName is the on-disk name for a checkpoint-only log: same
// format, zero record columns, so it gets its own extension to keep it
// from shadowing a full trace at the same (name, budget).
func ckptFileName(dir, name string, budget uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d.tcckpt", name, budget))
}

// --- encoding helpers ---

type encoder struct{ buf []byte }

func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) bytes(b []byte)   { e.uvarint(uint64(len(b))); e.buf = append(e.buf, b...) }
func (e *encoder) u32le(v uint32)   { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) raw(b []byte)     { e.buf = append(e.buf, b...) }
func (e *encoder) stringv(s string) { e.bytes([]byte(s)) }

func (e *encoder) boolv(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	e.buf = append(e.buf, v)
}

type decoder struct{ buf []byte }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil || n > uint64(len(d.buf)) {
		return nil, ErrTruncated
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func (d *decoder) boolv() (bool, error) {
	if len(d.buf) < 1 {
		return false, ErrTruncated
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b != 0, nil
}

// encodeTrace serializes a capture into the versioned wire/disk format
// (magic, version, header, payload, CRC-32). The same bytes are written
// to the trace directory and served over the cluster's trace CDN.
func encodeTrace(t *Trace, prog *asm.Program) []byte {
	var e encoder
	e.raw([]byte(diskMagic))
	e.u32le(formatVersion)

	hash := programHash(prog)
	e.stringv(t.name)
	e.uvarint(t.budget)
	e.raw(hash[:])
	e.boolv(t.halted)

	// Static table: PCs as deltas (text is mostly sequential), raw words.
	e.uvarint(uint64(len(t.staticPC)))
	var prevPC int64
	for i, pc := range t.staticPC {
		e.varint(int64(pc) - prevPC)
		prevPC = int64(pc)
		e.uvarint(uint64(t.staticWord[i]))
	}

	// Record columns, with the next PC and the address that the trace
	// derives written out. next is stored as a delta against the
	// record's fall-through (pc+4): zero for straight-line code, tiny
	// for most branches.
	e.uvarint(uint64(len(t.si)))
	for i := range t.si {
		e.uvarint(uint64(t.si[i]))
		fall := int64(t.staticPC[t.si[i]]) + isa.InstBytes
		e.varint(int64(t.nextPCAt(uint64(i))) - fall)
		e.buf = append(e.buf, t.flags[i])
		e.uvarint(uint64(t.addr(uint64(i))))
		e.uvarint(uint64(t.val[i]))
	}

	// OUT stream: record indices as deltas, then the raw bytes.
	e.uvarint(uint64(len(t.outAt)))
	var prevAt uint64
	for _, at := range t.outAt {
		e.uvarint(at - prevAt)
		prevAt = at
	}
	e.raw(t.out)

	// Checkpoint chunk: always present in v2, count may be zero.
	e.raw([]byte(ckptMagic))
	e.uvarint(ckptChunkVersion)
	e.uvarint(uint64(len(t.ckptSeq)))
	var prevSeq, prevOut uint64
	for k := range t.ckptSeq {
		e.uvarint(t.ckptSeq[k] - prevSeq)
		prevSeq = t.ckptSeq[k]
		e.uvarint(uint64(t.ckptPC[k]))
		e.uvarint(t.ckptOutLen[k] - prevOut)
		prevOut = t.ckptOutLen[k]
		for _, r := range t.ckptRegs[k*isa.NumRegs : (k+1)*isa.NumRegs] {
			e.uvarint(uint64(r))
		}
		var start uint32
		if k > 0 {
			start = t.ckptPageIdx[k-1]
		}
		end := t.ckptPageIdx[k]
		e.uvarint(uint64(end - start))
		for i := start; i < end; i++ {
			e.uvarint(uint64(t.ckptPN[i]))
			off := int(i) * emu.PageBytes
			e.raw(t.ckptPages[off : off+emu.PageBytes])
		}
	}

	e.u32le(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

// saveTrace persists a capture. Written atomically (tmp + rename) so a
// crashed writer leaves no partial file under the final name; a partial
// tmp file would fail the checksum anyway. ckptOnly selects the
// checkpoint-log file name.
func saveTrace(dir string, t *Trace, prog *asm.Program, ckptOnly bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf := encodeTrace(t, prog)
	file := traceFileName(dir, t.name, t.budget)
	if ckptOnly {
		file = ckptFileName(dir, t.name, t.budget)
	}
	tmp := file + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, file)
}

// loadTrace loads and validates the persisted trace for (name, budget).
// Returns (nil, file, nil) when no file exists — a plain miss — and a
// typed error for any validation failure.
func loadTrace(dir, name string, budget uint64, prog *asm.Program, ckptOnly bool) (*Trace, string, error) {
	file := traceFileName(dir, name, budget)
	if ckptOnly {
		file = ckptFileName(dir, name, budget)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, file, nil
		}
		return nil, file, err
	}
	t, err := decodeTrace(raw, name, budget, prog)
	return t, file, err
}

// decodeTrace validates and decodes one serialized trace against the
// (name, budget, program image) the caller is about to replay. Every
// byte of framing is checked — magic, version, CRC-32, workload name,
// budget, and the program's content hash — and any mismatch is a typed
// error, so a stale or corrupt trace can never replay silently whether
// it arrived from disk or from a cluster peer.
func decodeTrace(raw []byte, name string, budget uint64, prog *asm.Program) (*Trace, error) {
	if len(raw) < len(diskMagic)+4+4 {
		return nil, ErrTruncated
	}
	if string(raw[:len(diskMagic)]) != diskMagic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(raw[len(diskMagic):]); v != formatVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, formatVersion)
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, ErrBadChecksum
	}

	d := decoder{buf: body[len(diskMagic)+4:]}
	gotName, err := d.bytes()
	if err != nil {
		return nil, err
	}
	gotBudget, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if string(gotName) != name || gotBudget != budget {
		return nil, fmt.Errorf("%w: file says (%s, %d)", ErrKeyMismatch, gotName, gotBudget)
	}
	if len(d.buf) < 32 {
		return nil, ErrTruncated
	}
	var gotHash [32]byte
	copy(gotHash[:], d.buf[:32])
	d.buf = d.buf[32:]
	if gotHash != programHash(prog) {
		return nil, ErrStaleProgram
	}
	halted, err := d.boolv()
	if err != nil {
		return nil, err
	}

	t := &Trace{name: name, budget: budget, halted: halted}

	nStatic, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nStatic > uint64(len(d.buf)) { // each entry is >= 2 bytes
		return nil, ErrTruncated
	}
	t.staticPC = make([]uint32, nStatic)
	t.staticWord = make([]uint32, nStatic)
	t.staticInst = make([]isa.Inst, nStatic)
	var prevPC int64
	for i := range t.staticPC {
		dpc, err := d.varint()
		if err != nil {
			return nil, err
		}
		prevPC += dpc
		word, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		t.staticPC[i] = uint32(prevPC)
		t.staticWord[i] = uint32(word)
		t.staticInst[i] = isa.Decode(isa.Word(word))
	}

	nRec, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nRec > uint64(len(d.buf)) { // each record is >= 5 bytes
		return nil, ErrTruncated
	}
	// The file spells out every record's next PC and address, but the
	// trace keeps only what the stream cannot imply, so a file that
	// contradicts the stream is malformed: a next PC that is not the
	// following record's PC, an address on a record that is no load or
	// store, or load/store flags that disagree with the opcode (the
	// address rank index trusts them). lastNext holds the previous
	// record's next PC until the last record's ends the loop.
	t.si = make([]uint32, nRec)
	t.val = make([]uint32, nRec)
	t.flags = make([]uint8, nRec)
	t.ea = make([]uint32, 0, memCap(nRec))
	for i := range t.si {
		si, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if si >= nStatic {
			return nil, fmt.Errorf("%w: static index %d out of range", ErrTruncated, si)
		}
		pc := t.staticPC[si]
		if i > 0 && pc != t.lastNext {
			return nil, fmt.Errorf("%w: record %d's next PC %#x is not record %d's PC %#x",
				ErrTruncated, i-1, t.lastNext, i, pc)
		}
		dnext, err := d.varint()
		if err != nil {
			return nil, err
		}
		if len(d.buf) < 1 {
			return nil, ErrTruncated
		}
		fl := d.buf[0]
		d.buf = d.buf[1:]
		if op := t.staticInst[si].Op; fl&flagMem != memFlags(op) {
			return nil, fmt.Errorf("%w: record %d's load/store flags %#x disagree with its opcode %v",
				ErrTruncated, i, fl&flagMem, op)
		}
		ea, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if fl&flagMem != 0 {
			t.ea = append(t.ea, uint32(ea))
		} else if ea != 0 {
			return nil, fmt.Errorf("%w: record %d is no load or store but has address %#x",
				ErrTruncated, i, ea)
		}
		val, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		t.si[i] = uint32(si)
		t.lastNext = uint32(int64(pc) + isa.InstBytes + dnext)
		t.flags[i] = fl
		t.val[i] = uint32(val)
	}

	nOut, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nOut > uint64(len(d.buf)) {
		return nil, ErrTruncated
	}
	if nOut > 0 {
		t.outAt = make([]uint64, nOut)
		var prevAt uint64
		for i := range t.outAt {
			dat, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			prevAt += dat
			t.outAt[i] = prevAt
		}
		t.out = make([]byte, nOut)
		if uint64(len(d.buf)) < nOut {
			return nil, ErrTruncated
		}
		copy(t.out, d.buf[:nOut])
		d.buf = d.buf[nOut:]
	}

	if err := decodeCheckpoints(&d, t); err != nil {
		return nil, err
	}
	if len(d.buf) != 0 {
		return nil, ErrTruncated
	}
	t.seal()
	return t, nil
}

// decodeCheckpoints parses the TCCK chunk that trails the OUT stream.
// The file-level CRC has already passed by the time this runs, so any
// failure here means the chunk itself is malformed (or from a future
// chunk version): everything maps to ErrBadCheckpoint, and the error
// text names the chunk so the store's reject log pinpoints it.
func decodeCheckpoints(d *decoder, t *Trace) error {
	if len(d.buf) < len(ckptMagic) || string(d.buf[:len(ckptMagic)]) != ckptMagic {
		return fmt.Errorf("%w: %q chunk missing", ErrBadCheckpoint, ckptMagic)
	}
	d.buf = d.buf[len(ckptMagic):]
	cv, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("%w: %q chunk truncated", ErrBadCheckpoint, ckptMagic)
	}
	if cv != ckptChunkVersion {
		return fmt.Errorf("%w: %q chunk version %d, want %d", ErrBadCheckpoint, ckptMagic, cv, ckptChunkVersion)
	}
	n, err := d.uvarint()
	if err != nil || n > uint64(len(d.buf)) {
		return fmt.Errorf("%w: %q chunk truncated", ErrBadCheckpoint, ckptMagic)
	}
	var prevSeq, prevOut uint64
	for k := uint64(0); k < n; k++ {
		dseq, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("%w: %q chunk truncated at checkpoint %d", ErrBadCheckpoint, ckptMagic, k)
		}
		if dseq == 0 {
			return fmt.Errorf("%w: checkpoint %d sequence not increasing", ErrBadCheckpoint, k)
		}
		prevSeq += dseq
		pc, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("%w: %q chunk truncated at checkpoint %d", ErrBadCheckpoint, ckptMagic, k)
		}
		dout, err := d.uvarint()
		if err != nil {
			return fmt.Errorf("%w: %q chunk truncated at checkpoint %d", ErrBadCheckpoint, ckptMagic, k)
		}
		prevOut += dout
		if prevOut > uint64(len(t.out)) {
			return fmt.Errorf("%w: checkpoint %d OUT length %d past stream end %d", ErrBadCheckpoint, k, prevOut, len(t.out))
		}
		t.ckptSeq = append(t.ckptSeq, prevSeq)
		t.ckptPC = append(t.ckptPC, uint32(pc))
		t.ckptOutLen = append(t.ckptOutLen, prevOut)
		for r := 0; r < isa.NumRegs; r++ {
			v, err := d.uvarint()
			if err != nil {
				return fmt.Errorf("%w: %q chunk truncated at checkpoint %d", ErrBadCheckpoint, ckptMagic, k)
			}
			t.ckptRegs = append(t.ckptRegs, uint32(v))
		}
		nPages, err := d.uvarint()
		if err != nil || nPages*emu.PageBytes > uint64(len(d.buf)) {
			return fmt.Errorf("%w: %q chunk truncated at checkpoint %d", ErrBadCheckpoint, ckptMagic, k)
		}
		for p := uint64(0); p < nPages; p++ {
			pn, err := d.uvarint()
			if err != nil || len(d.buf) < emu.PageBytes {
				return fmt.Errorf("%w: %q chunk truncated at checkpoint %d page %d", ErrBadCheckpoint, ckptMagic, k, p)
			}
			t.ckptPN = append(t.ckptPN, uint32(pn))
			t.ckptPages = append(t.ckptPages, d.buf[:emu.PageBytes]...)
			d.buf = d.buf[emu.PageBytes:]
		}
		t.ckptPageIdx = append(t.ckptPageIdx, uint32(len(t.ckptPN)))
	}
	return nil
}
