package server

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"

	"tcsim/client"
)

// job is one submission's record.
type job struct {
	id      string
	key     string
	rid     string // request ID (= trace ID) of the submitting request
	mu      sync.Mutex
	state   string
	cached  bool
	ent     *cacheEntry // the result, shared with the cache; nil until done
	errMsg  string
	wall    time.Duration
	doneAt  time.Time // zero until terminal
	expires time.Time // zero until terminal; GC'd after
}

// JobEnvelope is a job on the wire with its result left encoded: the
// JSON that client.Job decodes, field for field. writeJob writes it
// around a result's stored encoding, and tcgate relays those bytes
// without parsing them, so no response re-encodes a tcsim.Result.
//
// The member order is part of the wire: id is always the first member,
// so a node's job body opens with {"id":"j<hex>" (LeadingJobID), and
// tcgate rewrites the ID by splicing its node prefix in there. Result
// is the last member, appended as the stored bytes.
type JobEnvelope struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Key    string          `json:"key"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	WallMS float64         `json:"wall_ms,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// JobBodyOpen opens every job response body: id is JobEnvelope's first
// member, and a node's job IDs ("j" + hex) need no escaping.
const JobBodyOpen = `{"id":"`

// LeadingJobID returns where the node job ID a job body opens with ends
// (the offset of its closing quote), or -1 unless body opens with
// {"id":"j<hex>".
func LeadingJobID(body []byte) int {
	rest, ok := bytes.CutPrefix(body, []byte(JobBodyOpen+"j"))
	n := bytes.IndexByte(rest, '"')
	if !ok || n < 1 {
		return -1
	}
	for _, c := range rest[:n] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return -1
		}
	}
	return len(body) - len(rest) + n
}

// wire converts the record to its API shape.
func (j *job) wire() JobEnvelope {
	j.mu.Lock()
	defer j.mu.Unlock()
	w := JobEnvelope{
		ID:     j.id,
		State:  j.state,
		Key:    j.key,
		Cached: j.cached,
		Error:  j.errMsg,
		WallMS: float64(j.wall.Microseconds()) / 1000,
	}
	if j.ent != nil {
		w.Result = j.ent.json
	}
	return w
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = client.StateRunning
	j.mu.Unlock()
}

func (j *job) finish(ent *cacheEntry, cached bool, err error, wall time.Duration, ttl time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.wall = wall
	j.cached = cached
	j.doneAt = time.Now()
	j.expires = j.doneAt.Add(ttl)
	if err != nil {
		j.state = client.StateFailed
		j.errMsg = err.Error()
		return
	}
	j.state = client.StateDone
	j.ent = ent
}

// jobStore indexes every job by ID, sync and async, cache hits
// included, so any job the daemon answered stays pollable through
// GET /v1/jobs/{id}; it garbage-collects finished ones after their TTL,
// bounding memory under sustained load.
type jobStore struct {
	ttl time.Duration

	mu   sync.Mutex
	jobs map[string]*job

	stop chan struct{}
	once sync.Once
}

// newJobStore starts a store whose janitor wakes at ttl/4 (minimum
// 100ms) to sweep expired jobs. ttl <= 0 selects 10 minutes.
func newJobStore(ttl time.Duration) *jobStore {
	if ttl <= 0 {
		ttl = 10 * time.Minute
	}
	s := &jobStore{ttl: ttl, jobs: make(map[string]*job), stop: make(chan struct{})}
	go s.janitor()
	return s
}

func (s *jobStore) janitor() {
	period := s.ttl / 4
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sweep(time.Now())
		case <-s.stop:
			return
		}
	}
}

// sweep removes jobs whose TTL elapsed. Exposed (lowercase) for tests
// to trigger deterministically.
func (s *jobStore) sweep(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, j := range s.jobs {
		j.mu.Lock()
		expired := !j.expires.IsZero() && now.After(j.expires)
		j.mu.Unlock()
		if expired {
			delete(s.jobs, id)
		}
	}
}

// create registers a new queued job with a fresh random ID, remembering
// the submitting request's ID so the job's spans stay findable by trace.
func (s *jobStore) create(key, rid string) *job {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	j := &job{id: "j" + hex.EncodeToString(b[:]), key: key, rid: rid, state: client.StateQueued}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
	return j
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// close stops the janitor.
func (s *jobStore) close() { s.once.Do(func() { close(s.stop) }) }
