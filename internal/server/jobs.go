package server

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"tcsim/client"
	"tcsim/internal/memo"
	"tcsim/internal/obs"
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
	expires time.Time // set by jobStore.keep; not found after
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

func (j *job) finish(ent *cacheEntry, cached bool, err error, wall time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.wall = wall
	j.cached = cached
	if err != nil {
		j.state = client.StateFailed
		j.errMsg = err.Error()
		return
	}
	j.state = client.StateDone
	j.ent = ent
}

// newJob returns a queued record with a fresh ID, stored nowhere yet,
// remembering the submitting request's ID so the job's spans stay
// findable by trace.
func newJob(key, rid string) *job {
	return &job{id: "j" + obs.NewSpanID(), key: key, rid: rid, state: client.StateQueued}
}

// maxFinishedJobs bounds the finished records a node keeps pollable.
const maxFinishedJobs = 4096

// jobStore keeps the record of every job someone can come back for:
// each admitted job, sync or async, whose ID names a run that
// /debug/trace/{id} can merge, and each ?async=1 cache hit. A sync cache
// hit keeps none; its caller already holds the answer. Queued and
// running records sit in live, which admission bounds at Workers+Queue,
// and are never evicted. A finished record answers GET /v1/jobs/{id}
// for the store's TTL, or until maxFinishedJobs newer records have
// finished, whichever comes first; a poll makes it recently used.
type jobStore struct {
	ttl  time.Duration
	done *memo.Cache[string, *job]

	mu   sync.Mutex
	live map[string]*job
}

// newJobStore returns an empty store. ttl <= 0 selects 10 minutes.
func newJobStore(ttl time.Duration) *jobStore {
	if ttl <= 0 {
		ttl = 10 * time.Minute
	}
	return &jobStore{ttl: ttl, done: memo.New[string, *job](maxFinishedJobs, nil), live: make(map[string]*job)}
}

// create registers a new queued job as live.
func (s *jobStore) create(key, rid string) *job {
	j := newJob(key, rid)
	s.mu.Lock()
	s.live[j.id] = j
	s.mu.Unlock()
	return j
}

// keep moves the finished record j into the finished records, to expire
// after the store's TTL. It enters them before it leaves live, and get
// looks in live first, so a reader finds a record at every moment.
func (s *jobStore) keep(j *job) {
	j.expires = time.Now().Add(s.ttl)
	s.done.Put(j.id, j)
	s.mu.Lock()
	delete(s.live, j.id)
	s.mu.Unlock()
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.Lock()
	j, ok := s.live[id]
	s.mu.Unlock()
	if ok {
		return j, true
	}
	// keep set expires before j entered done, and nothing sets it again.
	if j, ok = s.done.Get(id); ok && time.Now().Before(j.expires) {
		return j, true
	}
	return nil, false
}
