package bpred

import (
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	c := Counter(0)
	if c.Predict() {
		t.Error("0 should predict not-taken")
	}
	c = c.Update(true) // 1
	if c.Predict() {
		t.Error("1 should predict not-taken")
	}
	c = c.Update(true) // 2
	if !c.Predict() {
		t.Error("2 should predict taken")
	}
	c = c.Update(true).Update(true) // saturate at 3
	if c != 3 {
		t.Errorf("counter = %d", c)
	}
	c = c.Update(false).Update(false).Update(false).Update(false)
	if c != 0 {
		t.Errorf("counter = %d, want 0", c)
	}
}

func TestCounterSaturationProperty(t *testing.T) {
	f := func(updates []bool) bool {
		c := Counter(2)
		for _, u := range updates {
			c = c.Update(u)
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPHTLearns(t *testing.T) {
	p := NewPHT(1024)
	idx := uint32(37)
	for i := 0; i < 4; i++ {
		p.Update(idx, false)
	}
	if p.Predict(idx) {
		t.Error("should have learned not-taken")
	}
	for i := 0; i < 4; i++ {
		p.Update(idx, true)
	}
	if !p.Predict(idx) {
		t.Error("should have learned taken")
	}
	// Index masking.
	if p.Predict(idx+1024) != p.Predict(idx) {
		t.Error("aliased index should read the same counter")
	}
}

func TestPHTBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two PHT should panic")
		}
	}()
	NewPHT(1000)
}

func TestPredictorDefaults(t *testing.T) {
	p := New(Config{})
	if p.phts[0].Entries() != 64<<10 || p.phts[1].Entries() != 16<<10 || p.phts[2].Entries() != 8<<10 {
		t.Error("default PHT sizes wrong")
	}
	if p.Bias.Threshold() != 64 {
		t.Error("default bias threshold wrong")
	}
}

func TestPredictorLearnsPerSlot(t *testing.T) {
	p := New(Config{HistoryBits: 0}) // defaults
	pc := uint32(0x400100)
	// Train slot 0 strongly not-taken, slot 1 strongly taken, at the same pc.
	for i := 0; i < 32; i++ {
		_, tok0 := p.PredictCond(0, pc)
		p.Update(tok0, false)
		_, tok1 := p.PredictCond(1, pc)
		p.Update(tok1, true)
		// Keep the history deterministic: restore between rounds.
		p.SetHistory(0)
	}
	got0, _ := p.PredictCond(0, pc)
	p.SetHistory(0)
	got1, _ := p.PredictCond(1, pc)
	if got0 != false || got1 != true {
		t.Errorf("slot predictions = %v,%v", got0, got1)
	}
}

func TestPredictorSlotClamp(t *testing.T) {
	p := New(Config{})
	_, tok := p.PredictCond(7, 0x400000)
	if tok.Slot != 2 {
		t.Errorf("slot = %d, want clamp to 2", tok.Slot)
	}
	_, tok = p.PredictCond(-1, 0x400000)
	if tok.Slot != 2 {
		t.Errorf("slot = %d, want clamp to 2", tok.Slot)
	}
}

func TestHistoryShiftAndRestore(t *testing.T) {
	p := New(Config{HistoryBits: 4})
	p.PredictCond(0, 0x400000)
	h1 := p.History()
	p.PredictCond(0, 0x400004)
	if p.History() == h1 && p.History()<<1 != h1 {
		// History must have shifted; exact value depends on predictions.
		t.Log("history after two predictions:", p.History())
	}
	p.SetHistory(h1)
	if p.History() != h1 {
		t.Error("restore failed")
	}
	// Masked to HistoryBits.
	p.SetHistory(0)
	for i := 0; i < 10; i++ {
		p.pushHistory(true)
	}
	if p.History() != 0xF {
		t.Errorf("history = %#x, want 0xF", p.History())
	}
}

func TestBiasPromotion(t *testing.T) {
	b := NewBiasTable(1024, 4)
	pc := uint32(0x400040)
	for i := 0; i < 3; i++ {
		if b.Observe(pc, true) {
			t.Fatal("promoted too early")
		}
	}
	if !b.Observe(pc, true) {
		t.Fatal("should promote at threshold")
	}
	dir, ok := b.Promoted(pc)
	if !ok || !dir {
		t.Error("Promoted() should report taken")
	}
	if b.Promotions != 1 {
		t.Errorf("promotions = %d", b.Promotions)
	}
	// A contrary outcome demotes via Observe.
	if b.Observe(pc, false) {
		t.Error("direction flip should demote")
	}
	if _, ok := b.Promoted(pc); ok {
		t.Error("should be demoted")
	}
	if b.Demotions != 1 {
		t.Errorf("demotions = %d", b.Demotions)
	}
}

func TestBiasDemoteExplicit(t *testing.T) {
	b := NewBiasTable(64, 2)
	pc := uint32(0x400000)
	b.Observe(pc, false)
	b.Observe(pc, false)
	if _, ok := b.Promoted(pc); !ok {
		t.Fatal("should be promoted")
	}
	b.Demote(pc)
	if _, ok := b.Promoted(pc); ok {
		t.Error("explicit demote failed")
	}
	if b.Demotions != 1 {
		t.Errorf("demotions = %d", b.Demotions)
	}
	// Demoting an unpromoted entry is harmless and not counted.
	b.Demote(pc)
	if b.Demotions != 1 {
		t.Errorf("demotions = %d after demoting unpromoted", b.Demotions)
	}
}

func TestBiasSaturatesAtThreshold(t *testing.T) {
	b := NewBiasTable(64, 3)
	pc := uint32(0x400000)
	for i := 0; i < 100; i++ {
		b.Observe(pc, true)
	}
	if b.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", b.Promotions)
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	r.Push(0x200)
	if r.Peek() != 0x200 {
		t.Error("peek wrong")
	}
	if r.Pop() != 0x200 || r.Pop() != 0x100 {
		t.Error("pop order wrong")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x100)
	snap := r.Snapshot()
	r.Push(0x200)
	r.Push(0x300)
	r.Pop()
	r.Restore(snap)
	if r.Pop() != 0x100 {
		t.Error("restore did not recover the stack")
	}
}

func TestRASWrapAround(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if r.Pop() != 3 || r.Pop() != 2 {
		t.Error("wrap-around pops wrong")
	}
	// Deep pops return stale entries, never panic.
	_ = r.Pop()
	_ = r.Pop()
}

func TestIndirectTargets(t *testing.T) {
	itb := NewIndirectTargets(16)
	if _, ok := itb.Predict(0x400000); ok {
		t.Error("cold predict should miss")
	}
	itb.Update(0x400000, 0x500000)
	if tgt, ok := itb.Predict(0x400000); !ok || tgt != 0x500000 {
		t.Error("update/predict failed")
	}
	itb.Update(0x400000, 0x600000)
	if tgt, _ := itb.Predict(0x400000); tgt != 0x600000 {
		t.Error("should track last target")
	}
	itb.Reset()
	if tgt, ok := itb.Predict(0x400000); ok || tgt != 0 {
		t.Errorf("after Reset Predict = (%#x, %v), want (0, false) like a fresh buffer", tgt, ok)
	}
}

func TestPredictorReset(t *testing.T) {
	p := New(Config{})
	_, tok := p.PredictCond(0, 0x400000)
	p.Update(tok, false)
	p.Bias.Observe(0x400000, true)
	p.RAS.Push(1)
	p.ITB.Update(4, 8)
	p.Reset()
	if p.History() != 0 || p.Lookups != 0 {
		t.Error("reset incomplete")
	}
	if _, ok := p.ITB.Predict(4); ok {
		t.Error("ITB not reset")
	}
	// The counters, the trained one at 0x400000 included, are back to a
	// fresh predictor's, reset in place.
	fresh := New(Config{})
	for _, pc := range []uint32{0x400000, 0x400040, 0x401234} {
		got, _ := p.PredictCond(0, pc)
		want, _ := fresh.PredictCond(0, pc)
		if got != want {
			t.Errorf("PredictCond(0, %#x) = %v after Reset, %v on a fresh predictor", pc, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, p.Reset); allocs != 0 {
		t.Errorf("Reset allocates %v times, want 0", allocs)
	}
}
