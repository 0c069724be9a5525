package tracestore

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sync"

	"tcsim/internal/workload"
)

// Trace CDN seams: captured streams are content-addressed by the sha256
// of the program image they were recorded from, so a cluster of nodes
// can serve each other's captures over HTTP. A node that misses both its
// in-memory LRU and its trace directory asks its Fetcher (wired to the
// cluster gateway) before paying for a live capture; a node that holds a
// trace exports the exact versioned byte format the disk store writes.
// Validation is identical on both ends — magic, version, CRC-32,
// workload name, budget, program hash — and fail-closed: a corrupt or
// stale body is rejected loudly and the run falls back to live capture.

// ErrUnavailable reports that a trace is neither resident in memory nor
// present in the store's trace directory; the CDN answers 404 for it.
var ErrUnavailable = errors.New("tracestore: trace not resident")

// Fetcher fetches one serialized trace from a peer (in practice: the
// cluster gateway, which proxies to whichever node holds it). programSHA
// is the full hex sha256 of the built program image — the CDN address —
// and (name, budget) identify the requested stream. A nil or failing
// fetch falls back to live capture.
type Fetcher func(programSHA, name string, budget uint64) ([]byte, error)

// SetFetcher installs the store's peer-fetch hook (nil disables). Set
// before serving.
func (s *Store) SetFetcher(fn Fetcher) {
	s.mu.Lock()
	s.fetcher = fn
	s.mu.Unlock()
}

func hexHash(h [32]byte) string { return hex.EncodeToString(h[:]) }

// workloadHashIndex maps bundled-workload program hashes to names, built
// once on first CDN use (building all bundled programs is cheap and the
// images are deterministic).
var workloadHashIndex struct {
	once   sync.Once
	byHash map[string]string // hex sha256 -> workload name
	byName map[string]string // workload name -> hex sha256
}

func buildHashIndex() {
	workloadHashIndex.byHash = make(map[string]string)
	workloadHashIndex.byName = make(map[string]string)
	for _, name := range workload.Names() {
		w, ok := workload.ByName(name)
		if !ok {
			continue
		}
		hs := hexHash(programHash(w.Build()))
		workloadHashIndex.byHash[hs] = name
		workloadHashIndex.byName[name] = hs
	}
}

// WorkloadByHash resolves a program content hash (hex sha256) to the
// bundled workload it builds. The CDN uses it to translate the
// content address in GET /v1/traces/{sha} back to a (workload, budget)
// store key.
func WorkloadByHash(hexSHA string) (string, bool) {
	workloadHashIndex.once.Do(buildHashIndex)
	name, ok := workloadHashIndex.byHash[hexSHA]
	return name, ok
}

// WorkloadHash returns the program content hash (hex sha256) of a
// bundled workload — its trace CDN address.
func WorkloadHash(name string) (string, bool) {
	workloadHashIndex.once.Do(buildHashIndex)
	h, ok := workloadHashIndex.byName[name]
	return h, ok
}

// Validate checks one serialized trace body against a bundled workload
// and budget exactly as a replaying node would — magic, version, CRC-32,
// name, budget, and program content hash. The cluster tests use it to
// prove CDN round-trips serve replayable bytes.
func Validate(raw []byte, name string, budget uint64) error {
	w, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("tracestore: unknown workload %q", name)
	}
	_, err := decodeTrace(raw, name, budget, w.Build())
	return err
}

// ExportBytes serializes the store's capture of (name, budget) for the
// trace CDN: a resident trace is encoded directly; otherwise, with a
// trace directory configured, the persisted file is read and fully
// re-validated before a single byte is served — a corrupt file is a
// typed error (counted as a disk reject), never a response body.
// ErrUnavailable is the CDN's 404. count=false (HEAD probes) skips the
// serve counter.
func (s *Store) ExportBytes(name string, budget uint64, count bool) ([]byte, error) {
	if budget == 0 {
		return nil, fmt.Errorf("tracestore: budget must be resolved (non-zero) for %q", name)
	}
	if e, ok := s.traces.Get(key{name: name, budget: budget}); ok {
		raw := encodeTrace(e.Trace, e.Prog)
		if count {
			s.cdnServes.Add(1)
		}
		return raw, nil
	}
	dir := s.Dir()
	if dir == "" {
		return nil, ErrUnavailable
	}
	w, wok := workload.ByName(name)
	if !wok {
		return nil, fmt.Errorf("tracestore: unknown workload %q", name)
	}
	file := traceFileName(dir, name, budget)
	raw, err := os.ReadFile(file)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrUnavailable
		}
		return nil, err
	}
	if _, err := decodeTrace(raw, name, budget, w.Build()); err != nil {
		s.diskRejects.Add(1)
		if s.RejectLog != nil {
			s.RejectLog(file, err)
		}
		return nil, err
	}
	if count {
		s.cdnServes.Add(1)
	}
	return raw, nil
}
