package trace

import (
	"testing"

	"tcsim/internal/isa"
)

// mkSeg builds a straight-line segment of n ALU instructions starting at
// pc, with identity slot assignment and no internal dependencies.
func mkSeg(pc uint32, n int) *Segment {
	s := &Segment{StartPC: pc}
	for i := 0; i < n; i++ {
		in := isa.Inst{Op: isa.ADDI, Rt: isa.T0, Rs: isa.T1, Imm: int32(i)}
		s.Insts = append(s.Insts, SegInst{
			PC: pc + uint32(i)*4, Inst: in, Orig: in,
			SrcProducer: [3]int{NoProducer, NoProducer, NoProducer},
			NSrc:        1, BrSlot: NoSlot, Slot: i,
		})
	}
	s.Blocks = 1
	return s
}

// withBranch appends a conditional branch whose embedded path continues
// at target (taken) and then one more instruction at the target.
func withBranch(pc uint32) *Segment {
	s := mkSeg(pc, 2)
	br := isa.Inst{Op: isa.BNE, Rs: isa.T0, Rt: isa.R0, Imm: 4}
	brPC := pc + 8
	s.Insts = append(s.Insts, SegInst{
		PC: brPC, Inst: br, Orig: br,
		SrcProducer: [3]int{NoProducer, NoProducer, NoProducer},
		NSrc:        1, BrSlot: 0, Slot: 2,
	})
	tgt := br.BranchTarget(brPC)
	in := isa.Inst{Op: isa.ADDI, Rt: isa.T2, Rs: isa.T2, Imm: 1}
	s.Insts = append(s.Insts, SegInst{
		PC: tgt, Inst: in, Orig: in, Block: 1,
		SrcProducer: [3]int{NoProducer, NoProducer, NoProducer},
		NSrc:        1, BrSlot: NoSlot, Slot: 3,
	})
	s.CondBranches = 1
	s.Blocks = 2
	return s
}

func TestSegmentValidateOK(t *testing.T) {
	if err := mkSeg(0x400000, 5).Validate(); err != nil {
		t.Error(err)
	}
	if err := withBranch(0x400000).Validate(); err != nil {
		t.Error(err)
	}
}

func TestSegmentValidateFailures(t *testing.T) {
	empty := &Segment{StartPC: 4}
	if empty.Validate() == nil {
		t.Error("empty segment should fail")
	}

	tooBig := mkSeg(0x400000, MaxInsts+1)
	tooBig.Insts[16].Slot = 0 // avoid the slot-range failure masking the size one
	if tooBig.Validate() == nil {
		t.Error("17 instructions should fail")
	}

	badStart := mkSeg(0x400000, 3)
	badStart.StartPC = 0x400004
	if badStart.Validate() == nil {
		t.Error("mismatched start pc should fail")
	}

	badPath := mkSeg(0x400000, 3)
	badPath.Insts[2].PC += 4 // hole in the sequential path
	if badPath.Validate() == nil {
		t.Error("non-sequential path should fail")
	}

	dupSlot := mkSeg(0x400000, 3)
	dupSlot.Insts[2].Slot = 0
	if dupSlot.Validate() == nil {
		t.Error("duplicate slot should fail")
	}

	badProd := mkSeg(0x400000, 3)
	badProd.Insts[1].SrcProducer[0] = 2 // producer after consumer
	if badProd.Validate() == nil {
		t.Error("forward producer should fail")
	}

	badCount := withBranch(0x400000)
	badCount.CondBranches = 2
	if badCount.Validate() == nil {
		t.Error("wrong branch count should fail")
	}

	badBlock := withBranch(0x400000)
	badBlock.Insts[3].Block = 0
	if badBlock.Validate() == nil {
		t.Error("wrong block id should fail")
	}

	badScale := mkSeg(0x400000, 2)
	badScale.Insts[1].ScaleAmt = isa.MaxScaledShift + 1
	if badScale.Validate() == nil {
		t.Error("over-wide scale should fail")
	}

	badSlotTag := mkSeg(0x400000, 2)
	badSlotTag.Insts[0].BrSlot = 1
	if badSlotTag.Validate() == nil {
		t.Error("branch slot on non-branch should fail")
	}
}

func TestSegmentMidSerializingFails(t *testing.T) {
	s := mkSeg(0x400000, 2)
	halt := isa.Inst{Op: isa.HALT}
	s.Insts[0].Inst = halt
	s.Insts[0].Orig = halt
	s.Insts[0].NSrc = 0
	if s.Validate() == nil {
		t.Error("serializing instruction mid-segment should fail")
	}
}

func TestTakenInTrace(t *testing.T) {
	s := withBranch(0x400000)
	if taken, ok := s.TakenInTrace(2); !ok || !taken {
		t.Errorf("branch embedded direction = %v,%v want taken", taken, ok)
	}
	if taken, ok := s.TakenInTrace(0); !ok || taken {
		t.Errorf("sequential inst = %v,%v want not-taken continuation", taken, ok)
	}
	if _, ok := s.TakenInTrace(3); ok {
		t.Error("last inst has no embedded continuation")
	}
}

func TestCacheGeometry(t *testing.T) {
	c, err := NewCache(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 512 || c.Ways() != 4 {
		t.Errorf("default geometry = %d sets x %d ways", c.Sets(), c.Ways())
	}
	if _, err := NewCache(CacheConfig{Entries: 100, Ways: 3}); err == nil {
		t.Error("bad geometry should fail")
	}
	if _, err := NewCache(CacheConfig{Entries: 96, Ways: 32}); err == nil {
		t.Error("non-power-of-two sets should fail")
	}
}

func TestCacheInsertLookup(t *testing.T) {
	c, _ := NewCache(CacheConfig{Entries: 64, Ways: 4})
	if c.Lookup(0x400000, nil) != nil {
		t.Error("cold lookup should miss")
	}
	seg := mkSeg(0x400000, 4)
	c.Insert(seg)
	got := c.Lookup(0x400000, nil)
	if got != seg {
		t.Error("lookup should return the inserted segment")
	}
	if c.Lookup(0x400010, nil) != nil {
		t.Error("different pc should miss")
	}
	if c.HitLines != 1 || c.MissLines != 2 {
		t.Errorf("hits=%d misses=%d", c.HitLines, c.MissLines)
	}
	if c.InstsServed != 4 {
		t.Errorf("insts served = %d", c.InstsServed)
	}
}

func TestCachePathSelection(t *testing.T) {
	c, _ := NewCache(CacheConfig{Entries: 64, Ways: 4})
	a := withBranch(0x400000) // taken path
	// Build a second segment, same start, fall-through path.
	b := mkSeg(0x400000, 4)
	br := isa.Inst{Op: isa.BNE, Rs: isa.T0, Rt: isa.R0, Imm: 4}
	b.Insts[2].Inst = br
	b.Insts[2].Orig = br
	b.Insts[2].BrSlot = 0
	b.Insts[3].Block = 1
	b.CondBranches = 1
	b.Blocks = 2
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Insert(a)
	c.Insert(b)
	// A matcher that prefers the fall-through path.
	preferFallthrough := func(s *Segment) int {
		if tk, ok := s.TakenInTrace(2); ok && !tk {
			return 4
		}
		return 3
	}
	if got := c.Lookup(0x400000, preferFallthrough); got != b {
		t.Error("path matcher should select the fall-through way")
	}
	preferTaken := func(s *Segment) int {
		if tk, ok := s.TakenInTrace(2); ok && tk {
			return 4
		}
		return 3
	}
	if got := c.Lookup(0x400000, preferTaken); got != a {
		t.Error("path matcher should select the taken way")
	}
}

func TestCacheRebuildReplacesSamePath(t *testing.T) {
	c, _ := NewCache(CacheConfig{Entries: 64, Ways: 4})
	a := mkSeg(0x400000, 4)
	c.Insert(a)
	a2 := mkSeg(0x400000, 4) // identical path, rebuilt (e.g. after optimization)
	c.Insert(a2)
	// Must have replaced in place, not consumed a second way.
	used := 0
	for w := 0; w < 4; w++ {
		if got := c.Lookup(0x400000, nil); got != nil {
			used++
			break
		}
	}
	if got := c.Lookup(0x400000, nil); got != a2 {
		t.Error("rebuild should replace the same-path way")
	}
	_ = used
}

func TestCacheLRUWithinSet(t *testing.T) {
	c, _ := NewCache(CacheConfig{Entries: 2, Ways: 2}) // 1 set, 2 ways
	s1 := mkSeg(0x400000, 1)
	s2 := mkSeg(0x400100, 1)
	s3 := mkSeg(0x400200, 1)
	c.Insert(s1)
	c.Insert(s2)
	c.Lookup(0x400000, nil) // touch s1
	c.Insert(s3)            // evicts s2
	if c.Lookup(0x400000, nil) == nil {
		t.Error("s1 should survive")
	}
	if c.Lookup(0x400100, nil) != nil {
		t.Error("s2 should be evicted")
	}
	if c.Lookup(0x400200, nil) == nil {
		t.Error("s3 should be resident")
	}
}

func TestInvalidateContaining(t *testing.T) {
	c, _ := NewCache(CacheConfig{Entries: 64, Ways: 4})
	s1 := mkSeg(0x400000, 4)
	c.Insert(s1)
	c.Insert(mkSeg(0x500000, 4))
	dropped := c.InvalidateContaining(0x400008, nil) // third instruction of the first segment
	if len(dropped) != 1 || dropped[0] != s1 {
		t.Errorf("dropped %v, want exactly the first segment", dropped)
	}
	if c.Lookup(0x400000, nil) != nil {
		t.Error("containing line should be gone")
	}
	if c.Lookup(0x500000, nil) == nil {
		t.Error("other line should survive")
	}
}

func TestCacheReset(t *testing.T) {
	c, _ := NewCache(CacheConfig{Entries: 64, Ways: 4})
	seg := mkSeg(0x400000, 4)
	c.Insert(seg)
	c.Lookup(0x400000, nil)
	if dropped := c.Reset(nil); len(dropped) != 1 || dropped[0] != seg {
		t.Errorf("reset handed back %v, want the one resident segment", dropped)
	}
	if c.Lookup(0x400000, nil) != nil {
		t.Error("reset should clear contents")
	}
	if c.HitLines != 0 || c.Lookups != 1 {
		t.Errorf("stats after reset: hits=%d lookups=%d", c.HitLines, c.Lookups)
	}
}

func TestHitRate(t *testing.T) {
	c, _ := NewCache(CacheConfig{Entries: 64, Ways: 4})
	if c.HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
	c.Insert(mkSeg(0x400000, 1))
	c.Lookup(0x400000, nil)
	c.Lookup(0x400004, nil)
	if c.HitRate() != 0.5 {
		t.Errorf("hit rate = %f", c.HitRate())
	}
}
