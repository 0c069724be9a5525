package tracestore

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tcsim/internal/asm"
	"tcsim/internal/emu"
	"tcsim/internal/isa"
	"tcsim/internal/pipeline"
	"tcsim/internal/workload"
)

func mustWorkload(t testing.TB, name string) workload.Workload {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

func mustCapture(t testing.TB, name string, budget uint64) *Trace {
	t.Helper()
	tr, err := Capture(name, mustWorkload(t, name).Build(), budget)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCaptureMatchesLiveOracle: for every workload, every record a
// Replay serves, including the next PC and the address the trace
// derives rather than stores, must be identical to what the live oracle
// produces for the same seq, and the reconstructed Output must track
// the live machine's exactly.
func TestCaptureMatchesLiveOracle(t *testing.T) {
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			const budget = 20_000
			tr := mustCapture(t, w.Name, budget)
			if tr.Len() == 0 {
				t.Fatal("empty capture")
			}
			live := emu.NewOracle(emu.New(w.Build()))
			rep := tr.NewReplay()
			for seq := uint64(0); seq < tr.Len(); seq++ {
				want, wok := live.At(seq)
				got, gok := rep.At(seq)
				if wok != gok || !reflect.DeepEqual(want, got) {
					t.Fatalf("record %d: live (%+v, %v) != replay (%+v, %v)", seq, want, wok, got, gok)
				}
				if seq%512 == 0 {
					live.Release(seq)
					rep.Release(seq)
				}
				if !reflect.DeepEqual(live.Output(), rep.Output()) {
					t.Fatalf("record %d: output diverged: live %d bytes, replay %d bytes",
						seq, len(live.Output()), len(rep.Output()))
				}
			}
			if live.Err() != nil || rep.Err() != nil {
				t.Fatalf("unexpected errors: live %v replay %v", live.Err(), rep.Err())
			}
		})
	}
}

// TestCaptureSlackCoversMaxOracleLead pins the soundness condition of
// budget-truncated captures: the slack past the budget must cover the
// farthest the pipeline can push the oracle cursor past retirement.
func TestCaptureSlackCoversMaxOracleLead(t *testing.T) {
	lead := pipeline.MaxOracleLead(pipeline.DefaultConfig())
	if CaptureSlack < lead {
		t.Fatalf("CaptureSlack = %d < pipeline.MaxOracleLead = %d: replay could overrun a truncated capture", CaptureSlack, lead)
	}
}

// TestCaptureRefusesUnboundedBudget: a non-halting workload with budget
// 0 would capture forever; the store must refuse, not hang.
func TestCaptureRefusesUnboundedBudget(t *testing.T) {
	if _, err := Capture("compress", mustWorkload(t, "compress").Build(), 0); err == nil {
		t.Fatal("Capture with budget 0 succeeded; want refusal")
	}
}

// TestReplayPanicsOnReleasedSeq mirrors the live oracle's contract: a
// read below the released watermark is a pipeline retirement-ordering
// bug and must panic identically.
func TestReplayPanicsOnReleasedSeq(t *testing.T) {
	tr := mustCapture(t, "compress", 1000)
	rep := tr.NewReplay()
	rep.At(10)
	rep.Release(5)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("reading a released seq did not panic")
		}
		if !strings.Contains(r.(string), "already released") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	rep.At(3)
}

// TestReplayPanicsOnTruncatedOverread: reading past the end of a
// budget-truncated capture must fail loudly — a silent ok=false there
// would diverge from live emulation.
func TestReplayPanicsOnTruncatedOverread(t *testing.T) {
	tr := mustCapture(t, "compress", 1000)
	if tr.Complete() {
		t.Skip("capture completed within budget; nothing truncated to overread")
	}
	rep := tr.NewReplay()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("reading past a truncated capture did not panic")
		}
		if !strings.Contains(r.(string), "capture slack") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	rep.At(tr.Len())
}

// haltingProgram builds a tiny program that emits "hi" and halts —
// the bundled workloads all outrun any budget, so the end-of-stream
// semantics need a program with an architectural end.
func haltingProgram(t testing.TB) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	b.Label("main")
	b.Li(isa.T0, 'h')
	b.Out(isa.T0)
	b.Li(isa.T0, 'i')
	b.Out(isa.T0)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplayEndOfCompleteStream: past the end of a HALT-terminated
// stream, replay must mirror the live oracle — ok=false, nil error —
// and Output must return the full OUT stream.
func TestReplayEndOfCompleteStream(t *testing.T) {
	prog := haltingProgram(t)
	tr, err := Capture("tiny", prog, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete() {
		t.Fatal("tiny program did not record a HALT")
	}
	live := emu.NewOracle(emu.New(haltingProgram(t)))
	rep := tr.NewReplay()
	for seq := uint64(0); ; seq++ {
		want, wok := live.At(seq)
		got, gok := rep.At(seq)
		if wok != gok || !reflect.DeepEqual(want, got) {
			t.Fatalf("record %d: live (%v,%v) != replay (%v,%v)", seq, want, wok, got, gok)
		}
		if !wok {
			break
		}
	}
	if live.Err() != nil || rep.Err() != nil {
		t.Fatalf("errors at end: live %v replay %v", live.Err(), rep.Err())
	}
	if !reflect.DeepEqual(live.Output(), rep.Output()) {
		t.Fatalf("final output differs: live %q replay %q", live.Output(), rep.Output())
	}
	if got := string(rep.Output()); got != "hi" {
		t.Fatalf("replay output = %q, want %q", got, "hi")
	}
}

// faultingProgram stores, loads and emits a value, then jumps into its
// data section onto a word that decodes as an illegal instruction: its
// stream ends on an execution fault, and its last record is the jump.
func faultingProgram(t testing.TB) *asm.Program {
	t.Helper()
	const illegal = 0x3F // SPECIAL with an unassigned function code
	if op := isa.Decode(illegal).Op; op != isa.BAD {
		t.Fatalf("word %#x decodes to %v, want an illegal instruction", illegal, op)
	}
	b := asm.NewBuilder()
	b.Label("main")
	b.Li(isa.T0, 9)
	b.La(isa.T1, "buf")
	b.Sw(isa.T0, isa.T1, 0)
	b.Lw(isa.T2, isa.T1, 0)
	b.Out(isa.T2)
	b.La(isa.T3, "bad")
	b.Jr(isa.T3)
	b.DataLabel("buf")
	b.Word(0)
	b.DataLabel("bad")
	b.Word(illegal)
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLastRecordNextPC covers the streams whose last record has no
// following record to take its next PC from: one that halts before its
// budget, one cut at budget+CaptureSlack, and one that ends on an
// execution fault. Replay, and a replay of the trace after a round trip
// through the disk format, must serve the live oracle's records and end
// of stream.
func TestLastRecordNextPC(t *testing.T) {
	tiny, err := asm.AssembleText(tinySource)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1000
	for _, c := range []struct {
		name     string
		prog     *asm.Program
		complete bool
	}{
		{"halt", tiny, true},
		{"cut", mustWorkload(t, "li").Build(), false},
		{"fault", faultingProgram(t), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := c.prog
			tr, err := Capture(c.name, prog, budget)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Complete() != c.complete {
				t.Fatalf("Complete() = %v, want %v", tr.Complete(), c.complete)
			}
			if !c.complete && tr.Len() != budget+CaptureSlack {
				t.Fatalf("cut capture holds %d records, want %d", tr.Len(), budget+CaptureSlack)
			}
			loaded, err := decodeTrace(encodeTrace(tr, prog), c.name, budget, prog)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []*Trace{tr, loaded} {
				live := emu.NewOracle(emu.New(prog))
				rep := got.NewReplay()
				for seq := uint64(0); seq < tr.Len(); seq++ {
					want, _ := live.At(seq)
					rec, ok := rep.At(seq)
					if !ok || !reflect.DeepEqual(want, rec) {
						t.Fatalf("record %d: live %+v, replay (%+v, %v)", seq, want, rec, ok)
					}
				}
				last, _ := rep.At(tr.Len() - 1)
				if c.name == "halt" && (last.Inst.Op != isa.HALT || last.NextPC != last.PC+isa.InstBytes) {
					t.Errorf("last record %+v, want a HALT whose next PC falls through", last)
				}
				if !got.Complete() {
					// Reading past a cut capture panics, and the disk
					// format keeps no execution fault: the store never
					// persists a faulting capture.
					continue
				}
				_, wok := live.At(tr.Len())
				_, gok := rep.At(tr.Len())
				if wok || gok {
					t.Fatalf("past the end: live ok=%v, replay ok=%v, want both false", wok, gok)
				}
				if fmt.Sprint(live.Err()) != fmt.Sprint(rep.Err()) {
					t.Errorf("end of stream: live error %v, replay error %v", live.Err(), rep.Err())
				}
				if !reflect.DeepEqual(live.Output(), rep.Output()) {
					t.Errorf("output: live %q, replay %q", live.Output(), rep.Output())
				}
			}
			if c.name == "fault" {
				last, _ := tr.NewReplay().At(tr.Len() - 1)
				if bad, _ := prog.Symbol("bad"); last.Inst.Op != isa.JR || last.NextPC != bad {
					t.Errorf("last record %+v, want the JR to the illegal word at %#x", last, bad)
				}
			}
		})
	}
}

// TestTraceBytesPerRecord bounds what a captured record costs and
// checks that Bytes, which prices the store's LRU, tells the truth: for
// every workload at 20k, at most 10.5 bytes per record, and within 10%
// of the heap the capture retains. Records that kept their next PC and
// a zero address on every non-memory record cost 17.1 bytes.
func TestTraceBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("memory guard: the plain build runs it")
	}
	heap := func() uint64 {
		var m runtime.MemStats
		// Twice: what sync.Pools held before the first is freed by the
		// second.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, w := range workload.All() {
		prog := w.Build()
		heap0 := heap()
		tr, err := Capture(w.Name, prog, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		held := float64(heap()) - float64(heap0)
		runtime.KeepAlive(prog)
		bytes := float64(tr.Bytes())
		perRecord := bytes / float64(tr.Len())
		t.Logf("%-8s %d records: Bytes %.0f (%.2f B/record), heap retained %.0f", w.Name, tr.Len(), bytes, perRecord, held)
		if perRecord > 10.5 {
			t.Errorf("%s: a record costs %.2f B, want at most 10.5", w.Name, perRecord)
		}
		if math.Abs(bytes-held) > 0.1*held {
			t.Errorf("%s: Bytes() = %.0f, but the capture retains %.0f B of heap", w.Name, bytes, held)
		}
		loaded, err := decodeTrace(encodeTrace(tr, prog), w.Name, 20_000, prog)
		if err != nil {
			t.Fatal(err)
		}
		for how, tr := range map[string]*Trace{"captured": tr, "decoded": loaded} {
			if cols := spareColumns(tr); len(cols) > 0 {
				t.Errorf("%s: the %s trace's columns %v hold spare capacity", w.Name, how, cols)
			}
		}
	}
}

// spareColumns names the slice fields of tr whose capacity exceeds
// their length: memory the trace holds but Bytes does not count.
func spareColumns(tr *Trace) []string {
	var spare []string
	v := reflect.ValueOf(tr).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Cap() != f.Len() {
			spare = append(spare, v.Type().Field(i).Name)
		}
	}
	return spare
}
