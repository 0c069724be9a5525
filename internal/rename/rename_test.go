package rename

import (
	"testing"
	"testing/quick"

	"tcsim/internal/isa"
)

func TestFreshRATIsReady(t *testing.T) {
	r := NewRAT()
	for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
		if !r.Lookup(reg).Ready {
			t.Fatalf("register %v not ready in fresh RAT", reg)
		}
	}
}

func TestSetDestAndBroadcast(t *testing.T) {
	r := NewRAT()
	r.SetDest(isa.T0, 7)
	e := r.Lookup(isa.T0)
	if e.Ready || e.Tag != 7 {
		t.Fatalf("entry = %+v", e)
	}
	r.SetDest(isa.T1, 7) // a second reg mapped to the same tag (move-like)
	r.Broadcast(7)
	if !r.Lookup(isa.T0).Ready || !r.Lookup(isa.T1).Ready {
		t.Error("broadcast did not ready both entries")
	}
	// Broadcast must not touch entries with other tags.
	r.SetDest(isa.T2, 9)
	r.Broadcast(7)
	if r.Lookup(isa.T2).Ready {
		t.Error("broadcast readied wrong tag")
	}
}

func TestR0AlwaysReady(t *testing.T) {
	r := NewRAT()
	r.SetDest(isa.R0, 5)
	if e := r.Lookup(isa.R0); !e.Ready {
		t.Error("R0 must stay ready")
	}
}

func TestAliasCopiesMapping(t *testing.T) {
	r := NewRAT()
	// Source pending: both share the tag.
	r.SetDest(isa.T0, 11)
	e := r.Alias(isa.T1, isa.T0)
	if e.Ready || e.Tag != 11 {
		t.Fatalf("alias returned %+v", e)
	}
	if got := r.Lookup(isa.T1); got.Ready || got.Tag != 11 {
		t.Fatalf("aliased entry = %+v", got)
	}
	r.Broadcast(11)
	if !r.Lookup(isa.T1).Ready {
		t.Error("aliased entry should ready with the producer")
	}
	// Source ready: destination is immediately ready.
	e = r.Alias(isa.T2, isa.S0)
	if !e.Ready || !r.Lookup(isa.T2).Ready {
		t.Error("alias of ready source should be ready")
	}
	// Alias to R0 is discarded.
	r.Alias(isa.R0, isa.T0)
	if !r.Lookup(isa.R0).Ready {
		t.Error("R0 corrupted by alias")
	}
}

func TestSnapshotRestore(t *testing.T) {
	r := NewRAT()
	r.SetDest(isa.T0, 1)
	snap := r.Snapshot()
	r.SetDest(isa.T0, 2)
	r.SetDest(isa.T1, 3)
	r.Restore(snap)
	if e := r.Lookup(isa.T0); e.Ready || e.Tag != 1 {
		t.Errorf("t0 after restore = %+v", e)
	}
	if !r.Lookup(isa.T1).Ready {
		t.Error("t1 should be ready after restore")
	}
	if e := snap.Lookup(isa.T0); e.Tag != 1 {
		t.Errorf("snapshot lookup = %+v", e)
	}
	if !snap.Lookup(isa.R0).Ready {
		t.Error("snapshot R0 must be ready")
	}
}

func TestForkByCopyIsIndependent(t *testing.T) {
	r := NewRAT()
	r.SetDest(isa.T0, 1)
	fork := *r
	fork.SetDest(isa.T0, 2)
	fork.SetDest(isa.T1, 3)
	if e := r.Lookup(isa.T0); e.Tag != 1 {
		t.Error("fork write leaked into original")
	}
	if !r.Lookup(isa.T1).Ready {
		t.Error("fork write leaked into original t1")
	}
	if e := fork.Lookup(isa.T0); e.Tag != 2 {
		t.Error("fork did not record write")
	}
	fork.Reset()
	for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
		if !fork.Lookup(reg).Ready {
			t.Errorf("Reset left %v mapped to a producer", reg)
		}
	}
	if e := r.Lookup(isa.T0); e.Tag != 1 {
		t.Error("Reset of the fork touched the original")
	}
}

// Property: restore(snapshot) always reproduces the exact pre-snapshot
// mapping regardless of interleaved operations.
func TestSnapshotRestoreProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRAT()
		// Apply a random prefix.
		for i, op := range ops {
			r.SetDest(isa.Reg(op%32), Tag(i))
		}
		snap := r.Snapshot()
		want := *r
		for i, op := range ops {
			switch op % 3 {
			case 0:
				r.SetDest(isa.Reg(op%32), Tag(1000+i))
			case 1:
				r.Broadcast(Tag(i))
			case 2:
				r.Alias(isa.Reg(op%32), isa.Reg((op/3)%32))
			}
		}
		r.Restore(snap)
		return *r == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCheckpointPool(t *testing.T) {
	p := NewCheckpointPool(4)
	if p.Available() != 4 {
		t.Fatal("capacity wrong")
	}
	if !p.Allocate(3) {
		t.Fatal("allocate 3 should succeed")
	}
	if p.Allocate(2) {
		t.Fatal("allocate beyond capacity should fail")
	}
	if p.Available() != 1 {
		t.Errorf("available = %d", p.Available())
	}
	p.Release(2)
	if !p.Allocate(3) {
		t.Error("allocate after release should succeed")
	}
	p.Release(100) // over-release clamps
	if p.Available() != 4 {
		t.Errorf("available = %d after over-release", p.Available())
	}
	p.Allocate(2)
	p.Reset()
	if p.Available() != 4 {
		t.Error("reset failed")
	}
}

func TestCheckpointPoolDefaultCapacity(t *testing.T) {
	p := NewCheckpointPool(0)
	if p.Available() != 64 {
		t.Errorf("default capacity = %d", p.Available())
	}
}
