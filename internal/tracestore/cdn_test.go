package tracestore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tcsim/internal/workload"
)

// TestWorkloadHashIndex: every bundled workload has a stable content
// address, the index round-trips both ways, and addresses are unique.
func TestWorkloadHashIndex(t *testing.T) {
	seen := map[string]string{}
	for _, name := range workload.Names() {
		h, ok := WorkloadHash(name)
		if !ok || len(h) != 64 {
			t.Fatalf("WorkloadHash(%q) = (%q, %v), want 64 hex chars", name, h, ok)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("workloads %q and %q share program hash %s", prev, name, h)
		}
		seen[h] = name
		back, ok := WorkloadByHash(h)
		if !ok || back != name {
			t.Fatalf("WorkloadByHash(%s) = (%q, %v), want %q", h, back, ok, name)
		}
	}
	if _, ok := WorkloadByHash("deadbeef"); ok {
		t.Fatal("WorkloadByHash accepted an unknown hash")
	}
}

// TestExportBytesStates: a cold store exports ErrUnavailable; after a
// capture the export validates, counts a serve on GET but not on HEAD.
func TestExportBytesStates(t *testing.T) {
	s := NewStore(0)
	if _, err := s.ExportBytes("compress", 2000, true); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("cold export err = %v, want ErrUnavailable", err)
	}
	if _, _, err := s.Get("compress", 2000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportBytes("compress", 2000, false); err != nil {
		t.Fatalf("HEAD export: %v", err)
	}
	raw, err := s.ExportBytes("compress", 2000, true)
	if err != nil {
		t.Fatalf("GET export: %v", err)
	}
	if err := Validate(raw, "compress", 2000); err != nil {
		t.Fatalf("exported bytes fail validation: %v", err)
	}
	if st := s.Stats(); st.CDNServes != 1 {
		t.Fatalf("CDN serves = %d, want 1 (HEAD must not count)", st.CDNServes)
	}
}

// TestCDNFetchRoundTrip: a store whose fetcher serves another store's
// export captures without emulating — record-for-record identical to
// the origin — and counts the fetch.
func TestCDNFetchRoundTrip(t *testing.T) {
	origin := NewStore(0)
	ent, _, err := origin.Get("compress", 5000)
	if err != nil {
		t.Fatal(err)
	}
	peer := NewStore(0)
	var askedSHA, askedName string
	peer.SetFetcher(func(sha, name string, budget uint64) ([]byte, error) {
		askedSHA, askedName = sha, name
		return origin.ExportBytes(name, budget, true)
	})
	got, outcome, err := peer.Get("compress", 5000)
	if err != nil || outcome != OutcomeCapture {
		t.Fatalf("fetched Get = (%v, %v)", outcome, err)
	}
	wantSHA, _ := WorkloadHash("compress")
	if askedSHA != wantSHA || askedName != "compress" {
		t.Errorf("fetcher asked (%s, %s), want (%s, compress)", askedSHA, askedName, wantSHA)
	}
	if got.Trace.Len() != ent.Trace.Len() {
		t.Fatalf("fetched trace length %d, origin %d", got.Trace.Len(), ent.Trace.Len())
	}
	origRep, gotRep := ent.Trace.NewReplay(), got.Trace.NewReplay()
	for i := uint64(0); i < ent.Trace.Len(); i++ {
		want, _ := origRep.At(i)
		rec, _ := gotRep.At(i)
		if !reflect.DeepEqual(want, rec) {
			t.Fatalf("record %d differs after CDN round trip", i)
		}
	}
	st := peer.Stats()
	if st.CDNFetches != 1 || st.Captures != 1 || st.CDNRejects != 0 {
		t.Fatalf("peer stats = %+v, want one fetched capture", st)
	}
	if emulated := st.Captures - st.DiskLoads - st.CDNFetches; emulated != 0 {
		t.Fatalf("peer emulated %d captures, want 0", emulated)
	}
	if ost := origin.Stats(); ost.CDNServes != 1 {
		t.Fatalf("origin CDN serves = %d, want 1", ost.CDNServes)
	}
}

// TestCDNFetchFailClosed: every corrupt body a peer could serve —
// flipped payload byte, truncation, stale format version, a trace from
// a different program image — is rejected with its typed error and the
// run falls back to live capture. A replay of garbage is never
// possible.
func TestCDNFetchFailClosed(t *testing.T) {
	w := mustWorkload(t, "compress")
	prog := w.Build()
	tr, err := Capture("compress", prog, 2000)
	if err != nil {
		t.Fatal(err)
	}
	pristine := encodeTrace(tr, prog)

	cases := []struct {
		name string
		want error
		body func() []byte
	}{
		{"corrupted-payload", ErrBadChecksum, func() []byte {
			b := append([]byte(nil), pristine...)
			b[len(b)/2] ^= 0x40
			return b
		}},
		{"truncated", nil, func() []byte {
			return append([]byte(nil), pristine[:len(pristine)/3]...)
		}},
		{"stale-version", ErrBadVersion, func() []byte {
			b := append([]byte(nil), pristine...)
			b[4] = 0xFF // version field follows the 4-byte magic; CRC-exempt prefix
			return b
		}},
		{"stale-program", ErrStaleProgram, func() []byte {
			// Same workload name and budget, but serialized against a
			// different program image — a peer running a recompiled binary.
			return encodeTrace(tr, mustWorkload(t, "gcc").Build())
		}},
		{"wrong-workload", ErrKeyMismatch, func() []byte {
			otherProg := mustWorkload(t, "gcc").Build()
			otherTr, err := Capture("gcc", otherProg, 2000)
			if err != nil {
				t.Fatal(err)
			}
			return encodeTrace(otherTr, otherProg)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// stale-version mutates the CRC-exempt prefix, so the checksum
			// still passes and the version check must catch it first.
			s := NewStore(0)
			var logged []error
			s.RejectLog = func(_ string, err error) { logged = append(logged, err) }
			body := tc.body()
			s.SetFetcher(func(_, _ string, _ uint64) ([]byte, error) { return body, nil })
			ent, outcome, err := s.Get("compress", 2000)
			if err != nil || outcome != OutcomeCapture || ent == nil {
				t.Fatalf("Get over bad CDN body = (%v, %v, %v), want live capture", ent, outcome, err)
			}
			st := s.Stats()
			if st.CDNRejects != 1 || st.CDNFetches != 0 {
				t.Fatalf("rejects/fetches = %d/%d, want 1/0", st.CDNRejects, st.CDNFetches)
			}
			if emulated := st.Captures - st.DiskLoads - st.CDNFetches; emulated != 1 {
				t.Fatalf("emulated captures = %d, want 1 (the fallback)", emulated)
			}
			if len(logged) != 1 {
				t.Fatalf("reject log got %d entries, want 1", len(logged))
			}
			if tc.want != nil && !errors.Is(logged[0], tc.want) {
				t.Fatalf("reject = %v, want %v", logged[0], tc.want)
			}
		})
	}
}

// TestCDNFetchErrorFallsBack: a failing fetcher (peer down, 404) is a
// plain miss, not a reject — the store captures live and keeps serving.
func TestCDNFetchErrorFallsBack(t *testing.T) {
	s := NewStore(0)
	s.SetFetcher(func(_, _ string, _ uint64) ([]byte, error) {
		return nil, fmt.Errorf("no peer holds this trace")
	})
	ent, outcome, err := s.Get("compress", 2000)
	if err != nil || outcome != OutcomeCapture || ent == nil {
		t.Fatalf("Get with failing fetcher = (%v, %v, %v)", ent, outcome, err)
	}
	if st := s.Stats(); st.CDNRejects != 0 || st.CDNFetches != 0 || st.Captures != 1 {
		t.Fatalf("stats = %+v, want one clean live capture", st)
	}
}

// TestCDNFetchPersistsToDisk: a fetched trace lands in the trace
// directory too, so a node restart warm-loads it instead of re-fetching.
func TestCDNFetchPersistsToDisk(t *testing.T) {
	origin := NewStore(0)
	if _, _, err := origin.Get("compress", 2000); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	peer := NewStore(0)
	peer.SetDir(dir)
	peer.SetFetcher(func(_, name string, budget uint64) ([]byte, error) {
		return origin.ExportBytes(name, budget, true)
	})
	if _, _, err := peer.Get("compress", 2000); err != nil {
		t.Fatal(err)
	}
	if st := peer.Stats(); st.CDNFetches != 1 || st.DiskSaves != 1 {
		t.Fatalf("peer stats = %+v, want fetch persisted to disk", st)
	}
	restarted := NewStore(0)
	restarted.SetDir(dir)
	if _, _, err := restarted.Get("compress", 2000); err != nil {
		t.Fatal(err)
	}
	if st := restarted.Stats(); st.DiskLoads != 1 || st.CDNFetches != 0 {
		t.Fatalf("restarted stats = %+v, want one disk load and no fetch", st)
	}
}
