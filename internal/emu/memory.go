// Package emu implements the TCR functional emulator: a sparse paged
// memory, an architectural machine that executes one instruction per
// Step, and an Oracle that feeds the timing simulator the correct-path
// dynamic instruction stream (PCs, branch outcomes, effective addresses)
// so the pipeline can model speculation and wrong-path effects without
// carrying speculative data values.
package emu

import (
	"encoding/binary"
	"sort"

	"tcsim/internal/isa"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse, paged, little-endian 32-bit address space. Reads of
// unmapped addresses return zero without allocating; writes allocate the
// containing page.
//
// A one-entry last-hit cache fronts the page map: accesses are strongly
// page-local (sequential code, stack, streaming data), so the common case
// skips the map lookup entirely.
//
// A memory loaded by New also holds the program's text decoded, and
// Machine.Step fetches aligned text addresses from that table instead of
// decoding the word on every execution. The table stays equal to
// isa.Decode of the bytes in memory because every write overlapping the
// text range (a store, WriteBytes, a checkpoint's WritePage) re-decodes
// the words it touched.
type Memory struct {
	pages    map[uint32]*[pageSize]byte
	lastPN   uint32
	lastPage *[pageSize]byte
	dirty    map[uint32]struct{} // nil unless TrackDirty enabled

	text     []isa.Inst // text[i] == isa.Decode(Read32(textBase+4i))
	textBase uint32
	textEnd  uint32 // textBase + 4*len(text)
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, alloc bool) *[pageSize]byte {
	pn := addr >> pageShift
	if alloc && m.dirty != nil {
		m.dirty[pn] = struct{}{}
	}
	if p := m.lastPage; p != nil && pn == m.lastPN {
		return p
	}
	p := m.pages[pn]
	if p == nil && alloc {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// loadText installs insts, the decoding of the words already written at
// base, as the fetch table.
func (m *Memory) loadText(base uint32, insts []isa.Inst) {
	m.text = insts
	m.textBase = base
	m.textEnd = base + uint32(len(insts))*isa.InstBytes
}

// wrote keeps the text table equal to memory after n bytes were written
// at addr.
func (m *Memory) wrote(addr, n uint32) {
	if addr < m.textEnd && addr+n > m.textBase {
		m.redecode(addr, n)
	}
}

// redecode re-decodes every text word overlapping [addr, addr+n).
func (m *Memory) redecode(addr, n uint32) {
	lo, hi := max(addr, m.textBase), min(addr+n, m.textEnd)
	for i := (lo - m.textBase) / isa.InstBytes; m.textBase+i*isa.InstBytes < hi; i++ {
		m.text[i] = isa.Decode(m.Read32(m.textBase + i*isa.InstBytes))
	}
}

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v byte) {
	m.page(addr, true)[addr&pageMask] = v
	m.wrote(addr, 1)
}

// Read16 reads a little-endian halfword (no alignment requirement).
func (m *Memory) Read16(addr uint32) uint16 {
	if addr&pageMask <= pageSize-2 {
		if p := m.page(addr, false); p != nil {
			return binary.LittleEndian.Uint16(p[addr&pageMask:])
		}
		return 0
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 writes a little-endian halfword.
func (m *Memory) Write16(addr uint32, v uint16) {
	if addr&pageMask <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.page(addr, true)[addr&pageMask:], v)
		m.wrote(addr, 2)
		return
	}
	m.Write8(addr, byte(v))
	m.Write8(addr+1, byte(v>>8))
}

// Read32 reads a little-endian word.
func (m *Memory) Read32(addr uint32) uint32 {
	if addr&pageMask <= pageSize-4 {
		if p := m.page(addr, false); p != nil {
			return binary.LittleEndian.Uint32(p[addr&pageMask:])
		}
		return 0
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 writes a little-endian word.
func (m *Memory) Write32(addr uint32, v uint32) {
	if addr&pageMask <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr, true)[addr&pageMask:], v)
		m.wrote(addr, 4)
		return
	}
	m.Write16(addr, uint16(v))
	m.Write16(addr+2, uint16(v>>16))
}

// WriteBytes copies a byte slice into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for i, v := range b {
		m.Write8(addr+uint32(i), v)
	}
}

// MappedPages reports how many pages have been allocated (test hook).
func (m *Memory) MappedPages() int { return len(m.pages) }

// PageBytes is the size of one memory page; checkpoint page deltas are
// recorded at this granularity.
const PageBytes = pageSize

// TrackDirty starts recording which pages are written. Capture enables
// it after the program image is loaded so checkpoints carry only the
// pages mutated since the previous snapshot, not the whole image.
func (m *Memory) TrackDirty() {
	if m.dirty == nil {
		m.dirty = make(map[uint32]struct{})
	}
}

// TakeDirty appends the page numbers written since the last call (sorted,
// for deterministic encoding) to dst and clears the set. It returns dst
// unchanged when tracking is off or nothing was written.
func (m *Memory) TakeDirty(dst []uint32) []uint32 {
	if len(m.dirty) == 0 {
		return dst
	}
	start := len(dst)
	for pn := range m.dirty {
		dst = append(dst, pn)
		delete(m.dirty, pn)
	}
	tail := dst[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	return dst
}

// ReadPage copies page pn into dst (which must hold PageBytes) and
// reports whether the page is mapped; an unmapped page zero-fills dst.
func (m *Memory) ReadPage(pn uint32, dst []byte) bool {
	p := m.pages[pn]
	if p == nil {
		for i := range dst[:PageBytes] {
			dst[i] = 0
		}
		return false
	}
	copy(dst, p[:])
	return true
}

// WritePage replaces page pn with the contents of src (PageBytes long).
// Checkpoint restore uses it to apply recorded page deltas.
func (m *Memory) WritePage(pn uint32, src []byte) {
	p := m.pages[pn]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	copy(p[:], src[:pageSize])
	if m.dirty != nil {
		m.dirty[pn] = struct{}{}
	}
	m.wrote(pn<<pageShift, pageSize)
}
