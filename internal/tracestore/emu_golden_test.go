package tracestore

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tcsim/internal/workload"
)

var updateEmuGolden = flag.Bool("update", false, "rewrite testdata/emu_golden.txt from the current emulator")

// Golden budgets: a full trace long enough to cover every workload's
// setup and first loop nests, and a checkpoint log that takes 8
// snapshots at the 32k interval floor, so the golden also pins the
// page deltas each checkpoint carries.
const (
	emuGoldenTraceInsts = 20_000
	emuGoldenCkptInsts  = 262_144
)

// TestEmulatorGolden pins the functional emulator's output: the
// SHA-256 of the exact bytes the disk store writes (the TCTR trace
// with its TCCK checkpoint chunk) for a full capture and a checkpoint
// log of all 15 workloads. Every record column, the static table, the
// OUT stream, and each checkpoint's registers and dirty pages feed the
// digest, so an emulator change that alters a single executed value
// fails here. A deliberate ISA or workload change regenerates it with
//
//	go test ./internal/tracestore -run TestEmulatorGolden -update
func TestEmulatorGolden(t *testing.T) {
	var got []string
	for _, w := range workload.All() {
		prog := w.Build()
		tr, err := Capture(w.Name, prog, emuGoldenTraceInsts)
		if err != nil {
			t.Fatalf("%s: capture: %v", w.Name, err)
		}
		got = append(got, fmt.Sprintf("%s trace=%d records=%d sha256=%x",
			w.Name, emuGoldenTraceInsts, tr.Len(), sha256.Sum256(encodeTrace(tr, prog))))
		log, err := CaptureCheckpointLog(w.Name, prog, emuGoldenCkptInsts)
		if err != nil {
			t.Fatalf("%s: checkpoint log: %v", w.Name, err)
		}
		got = append(got, fmt.Sprintf("%s ckptlog=%d checkpoints=%d sha256=%x",
			w.Name, emuGoldenCkptInsts, log.Checkpoints(), sha256.Sum256(encodeTrace(log, prog))))
	}

	const path = "testdata/emu_golden.txt"
	if *updateEmuGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, emulator produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("emulator output drifted:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
