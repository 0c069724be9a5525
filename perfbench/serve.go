package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"tcsim"
	"tcsim/client"
	"tcsim/internal/cluster"
	"tcsim/internal/obs"
	"tcsim/internal/server"
)

// The serve mix. No traffic log of the service exists, so the mix is
// assumed, not observed; each constant is set by the metric it serves.
// A 20 s run completes 19,000-25,000 jobs on 2 vCPUs. The schedule of
// fresh and repeated keys is fixed; the seed picks the keys.
//
// Jobs not scheduled otherwise repeat a key warmed at set-up:
// result-cache hits, so job_p50_ms measures service overhead.
const (
	// Every freshEvery-th job is a fresh key: 2%, twice the 1% of jobs
	// beyond job_p99_ms. Fresh keys queue and simulate, some after a
	// trace CDN fetch from the peer node, so job_p99_ms falls near the
	// median simulated job (~50 ms) with ~200 of them beyond it, not on
	// the edge between hits and simulations.
	freshEvery = 50
	// Every repeatEvery-th job, half-way between two fresh keys, sends the
	// latest fresh key again: 1%, about 20 ms after it, while it usually
	// still simulates. Fresh keys are never drawn twice, so these are the
	// only concurrent requests for one key, and the only source of
	// server.singleflight_joins. job_p99_ms does not rest on them: fresh
	// keys alone exceed 1%.
	repeatEvery = 100
	// asyncShare makes 40-50 fresh jobs a run go through submit and poll,
	// well above 10; async hits come back done from the submit.
	asyncShare = 0.10
	// asyncPoll adds on average 1 ms, 2% of a simulated job, to a polled
	// job's latency.
	asyncPoll = 2 * time.Millisecond
	// warmPerWorkload keys of every workload are warmed: every response
	// shape is in the hit mix whatever the seed, and the 30 keys spread
	// over both nodes.
	warmPerWorkload = 2
)

var serveNodes = []string{"node0", "node1"}

// serveKey is one job of the request universe, resolved the way the
// daemon resolves it.
type serveKey struct {
	req client.JobRequest
	key string
	cfg tcsim.Config
}

// servedKey is the first result served for a key, which every later
// response for the key must equal and which a direct run checks.
type servedKey struct {
	sk      *serveKey
	res     tcsim.Result
	jobs    int  // responses compared against res
	checked bool // res was compared with a direct run
}

// serveBench drives a closed loop of GOMAXPROCS clients against a tcgate
// gateway over two tcserved nodes, all in this process on loopback, each
// node with its own trace store and a CDN fetcher through the gateway —
// the way cmd/tcserved's cluster selfcheck boots its nodes.
type serveBench struct {
	b        *bench
	universe []*serveKey // seeded order, warm keys first
	gen      *serveGen
	refStore *tcsim.TraceStore // direct reference runs, isolated from the nodes

	mu     sync.Mutex
	served map[string]*servedKey

	// One set-up's cluster.
	gwURL    string
	nodeURLs []string
	stop     []func(context.Context)
	httpc    *http.Client
	gcl      *client.Client
	nodeCl   []*client.Client

	spans map[string]obs.Span // queue-wait and run spans of the traced phase, by span ID
}

func newServeBench(b *bench) (*serveBench, error) {
	s := &serveBench{b: b, refStore: tcsim.NewTraceStore(0), served: map[string]*servedKey{}}
	var variants []client.JobRequest
	variants = append(variants, client.JobRequest{Preset: client.PresetBaseline}, client.JobRequest{Preset: client.PresetAll})
	spec := tcsim.DefaultPassSpec()
	for i, p := range spec {
		variants = append(variants, client.JobRequest{Passes: []string{p}})
		for _, q := range spec[i+1:] {
			variants = append(variants, client.JobRequest{Passes: []string{p, q}})
		}
	}
	for _, w := range tcsim.Workloads() {
		for _, v := range variants {
			for _, lat := range []int{1, 5, 10} {
				for _, pol := range []string{"", "srrip", "trrip"} {
					req := v
					req.Workload, req.Insts, req.FillLatency, req.TCPolicy = w, b.sz.serveInsts, lat, pol
					cfg, key, err := server.ResolveConfig(&req, server.Limits{})
					if err != nil {
						return nil, fmt.Errorf("resolve %+v: %w", req, err)
					}
					s.universe = append(s.universe, &serveKey{req: req, key: key, cfg: cfg})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(s.universe), func(i, j int) { s.universe[i], s.universe[j] = s.universe[j], s.universe[i] })
	// The warm set holds the same number of keys of every workload, so
	// the hit mix, whose response sizes differ by workload, does not
	// depend on the seed. The fresh keys take the workloads in turn, so
	// neither does the mix of workloads simulated.
	byWorkload := map[string][]*serveKey{}
	for _, sk := range s.universe {
		byWorkload[sk.req.Workload] = append(byWorkload[sk.req.Workload], sk)
	}
	var warm, pool []*serveKey
	for i := 0; len(warm)+len(pool) < len(s.universe); i++ {
		for _, w := range tcsim.Workloads() {
			switch keys := byWorkload[w]; {
			case i >= len(keys):
			case i < warmPerWorkload:
				warm = append(warm, keys[i])
			default:
				pool = append(pool, keys[i])
			}
		}
	}
	s.universe = append(warm, pool...)
	s.gen = &serveGen{rng: rng, warm: warm, pool: pool}
	return s, nil
}

// serveGen draws the seeded request sequence. Draws are serialized, so
// the sequence depends only on the seed; which client sends which draw
// depends on timing.
type serveGen struct {
	mu   sync.Mutex
	rng  *rand.Rand
	warm []*serveKey
	pool []*serveKey // fresh keys, drawn in order without replacement
	n    int         // draws so far
}

func (g *serveGen) draw() (sk *serveKey, async bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n := g.n; n%freshEvery == 0 || n%repeatEvery == repeatEvery/4 {
		sk = g.pool[n/freshEvery%len(g.pool)] // a fresh key, or the latest again
	} else {
		sk = g.warm[g.rng.Intn(len(g.warm))]
	}
	g.n++
	return sk, g.rng.Float64() < asyncShare
}

// setup boots the nodes and the gateway and warms the result cache with
// the warm keys, one job at a time.
func (s *serveBench) setup() error {
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.gwURL = "http://" + gwLn.Addr().String()
	quiet := slogDiscard()
	var nodes []cluster.Node
	for _, name := range serveNodes {
		st := tcsim.NewTraceStore(0)
		st.SetFetcher(cluster.TraceFetcher(s.gwURL, nil))
		srv := server.New(server.Config{Engine: server.EngineConfig{Store: st}, Logger: quiet, Service: name})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			gwLn.Close()
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		s.stop = append(s.stop, func(ctx context.Context) {
			hs.Shutdown(ctx)
			srv.Shutdown(ctx)
		})
		url := "http://" + ln.Addr().String()
		s.nodeURLs = append(s.nodeURLs, url)
		nodes = append(nodes, cluster.Node{Name: name, URL: url})
	}
	g, err := cluster.New(cluster.Config{Nodes: nodes, Logger: quiet})
	if err != nil {
		gwLn.Close()
		return err
	}
	g.Start()
	gs := &http.Server{Handler: g.Handler()}
	go gs.Serve(gwLn)
	// Stopped first: the gateway before the nodes it routes to.
	s.stop = append([]func(context.Context){func(ctx context.Context) {
		gs.Shutdown(ctx)
		g.Shutdown(ctx)
	}}, s.stop...)

	// The load's connections: at most GOMAXPROCS per host.
	procs := runtime.GOMAXPROCS(0)
	s.httpc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}}
	s.gcl = client.New(s.gwURL).WithHTTPClient(s.httpc)
	s.nodeCl = nil
	for _, u := range s.nodeURLs {
		s.nodeCl = append(s.nodeCl, client.New(u).WithHTTPClient(s.httpc))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.gcl.Ready(ctx); err != nil {
		return fmt.Errorf("gateway readiness: %w", err)
	}
	for _, sk := range s.gen.warm {
		job, err := s.gcl.SubmitJob(ctx, &sk.req)
		if err := s.observe(sk, job, err); err != nil {
			return fmt.Errorf("warm job: %w", err)
		}
	}
	return nil
}

func (s *serveBench) teardown() {
	if s.stop == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, stop := range s.stop {
		stop(ctx)
	}
	s.httpc.CloseIdleConnections()
	s.stop, s.nodeURLs, s.nodeCl = nil, nil, nil
}

func (s *serveBench) submit(ctx context.Context, c *client.Client, sk *serveKey, async bool) (*client.Job, error) {
	if !async {
		return c.SubmitJob(ctx, &sk.req)
	}
	job, err := c.SubmitJobAsync(ctx, &sk.req)
	if err != nil || job.Done() {
		return job, err
	}
	return c.WaitJob(ctx, job.ID, asyncPoll)
}

// observe checks one response: done, keyed as resolved, and equal to the
// first result served for its key.
func (s *serveBench) observe(sk *serveKey, job *client.Job, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", sk.req.Workload, err)
	}
	if job.State != client.StateDone || job.Result == nil {
		return fmt.Errorf("%s: job %s ended %q: %s", sk.req.Workload, job.ID, job.State, job.Error)
	}
	if job.Key != sk.key {
		return fmt.Errorf("%s: served key %.12s, resolved %.12s", sk.req.Workload, job.Key, sk.key)
	}
	s.mu.Lock()
	first, ok := s.served[sk.key]
	if !ok {
		s.served[sk.key] = &servedKey{sk: sk, res: *job.Result, jobs: 1}
		s.mu.Unlock()
		return nil
	}
	first.jobs++
	s.mu.Unlock()
	if !reflect.DeepEqual(first.res, *job.Result) {
		return fmt.Errorf("%s (key %.12s): result differs from an earlier response for the same key", sk.req.Workload, sk.key)
	}
	return nil
}

// measure runs the closed loop for d. Its direct reference runs wait
// for check, outside the timed and profiled phase.
func (s *serveBench) measure(d time.Duration, traced bool) *phase {
	ph := &phase{}
	var scrapeDone chan struct{}
	stopScrape := make(chan struct{})
	if traced {
		s.spans = map[string]obs.Span{}
		scrapeDone = make(chan struct{})
		go func() {
			defer close(scrapeDone)
			t := time.NewTicker(200 * time.Millisecond)
			defer t.Stop()
			for {
				s.scrapeSpans()
				select {
				case <-stopScrape:
					s.scrapeSpans()
					return
				case <-t.C:
				}
			}
		}()
	}
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sk, async := s.gen.draw()
				j0 := time.Now()
				job, err := s.submit(ctx, s.gcl, sk, async)
				lat := time.Since(j0)
				err = s.observe(sk, job, err)
				if err == nil && !job.Cached {
					ph.mu.Lock()
					ph.simInsts += float64(job.Result.Retired)
					ph.mu.Unlock()
				}
				ph.add(s.b.t, start, lat, err)
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start).Seconds()
	if traced {
		close(stopScrape)
		<-scrapeDone
	}

	ends := append([]float64(nil), ph.ends...)
	sort.Float64s(ends)
	prev := 0.0
	for k := s.b.sz.serveRound; k <= len(ends); k += s.b.sz.serveRound {
		ph.repWall = append(ph.repWall, ends[k-1]-prev)
		prev = ends[k-1]
	}
	if len(ph.repWall) == 0 {
		ph.repWall = []float64{ph.elapsed}
	}
	return ph
}

// check compares the first served result of every key not yet
// checked with a direct tcsim.RunWorkloadContextIn of the same resolved
// config; a mismatch fails every response served for the key.
func (s *serveBench) check() {
	s.mu.Lock()
	var todo []*servedKey
	for _, f := range s.served {
		if !f.checked {
			f.checked = true
			todo = append(todo, f)
		}
	}
	s.mu.Unlock()
	ctx := context.Background()
	work := make(chan *servedKey)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range work {
				ref, err := tcsim.RunWorkloadContextIn(ctx, f.sk.cfg, f.sk.req.Workload, s.refStore)
				if err == nil && !reflect.DeepEqual(ref, f.res) {
					err = fmt.Errorf("%s (key %.12s): served result differs from the direct run (IPC %v vs %v)",
						f.sk.req.Workload, f.sk.key, f.res.IPC, ref.IPC)
				}
				if err != nil {
					s.mu.Lock()
					n := f.jobs
					s.mu.Unlock()
					for j := 0; j < n; j++ {
						s.b.t.fail(err)
					}
				}
			}
		}()
	}
	for _, f := range todo {
		work <- f
	}
	close(work)
	wg.Wait()
}

func (s *serveBench) get(url string) ([]byte, error) {
	resp, err := s.httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeSpans collects the nodes' resident queue-wait and run spans.
// The span rings are bounded, so the traced phase scrapes them as it
// runs.
func (s *serveBench) scrapeSpans() {
	for _, u := range s.nodeURLs {
		var dump obs.SpanDump
		raw, err := s.get(u + "/debug/spans")
		if err != nil || json.Unmarshal(raw, &dump) != nil {
			continue
		}
		s.mu.Lock()
		for _, sp := range dump.Spans {
			if sp.Name == "queue-wait" || sp.Name == "run" {
				s.spans[sp.SpanID] = sp
			}
		}
		s.mu.Unlock()
	}
}

// scrape parses one /metrics exposition.
func (s *serveBench) scrape(url string) (map[string]float64, error) {
	raw, err := s.get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(raw)
}

// nodeSums sums the given samples over every node's /metrics.
func (s *serveBench) nodeSums(keys ...string) ([]float64, error) {
	sums := make([]float64, len(keys))
	for _, u := range s.nodeURLs {
		ex, err := s.scrape(u)
		if err != nil {
			return nil, err
		}
		for i, k := range keys {
			v, err := sample(ex, k)
			if err != nil {
				return nil, err
			}
			sums[i] += v
		}
	}
	return sums, nil
}

func sample(m map[string]float64, key string) (float64, error) {
	v, ok := m[key]
	if !ok {
		return 0, fmt.Errorf("exposition has no sample %s", key)
	}
	return v, nil
}

// layers is the serve workload's own rows: the service rows plus the
// nodes' trace stores.
func (s *serveBench) layers(m metrics) error {
	if err := s.serviceLayers(m); err != nil {
		return err
	}
	st, err := s.nodeSums("tcserved_tracestore_captures_total",
		`tcserved_tracestore_cdn_total{outcome="fetch"}`, "tcserved_tracestore_resident_bytes")
	if err != nil {
		return err
	}
	m.set("experiments.simulations", 0, "count")
	m.set("tracestore.captures", st[0], "count")
	m.set("tracestore.cdn_fetches", st[1], "count")
	m.set("tracestore.resident_mb", st[2]/1e6, "MB")
	return nil
}

// serviceLayers fills the cluster and server rows from the nodes' and
// the gateway's /metrics, the spans of the traced phase, and timed
// client calls.
func (s *serveBench) serviceLayers(m metrics) error {
	sv, err := s.nodeSums(`tcserved_cache_requests_total{result="hit"}`, `tcserved_cache_requests_total{result="miss"}`,
		`tcserved_cache_requests_total{result="join"}`, `tcserved_jobs_total{event="rejected"}`)
	if err != nil {
		return err
	}
	hits, misses, joins, rejected := sv[0], sv[1], sv[2], sv[3]
	gw, err := s.scrape(s.gwURL)
	if err != nil {
		return err
	}
	retries, err := sample(gw, "tcgate_retries_total")
	if err != nil {
		return err
	}
	rehashes, err := sample(gw, "tcgate_rehashes_total")
	if err != nil {
		return err
	}
	m.set("server.cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	m.set("server.singleflight_joins", joins, "count")
	m.set("server.rejected", rejected, "count")
	m.set("cluster.retries", retries, "count")
	m.set("cluster.rehashes", rehashes, "count")

	s.mu.Lock()
	var wait, runMS []float64
	for _, sp := range s.spans {
		ms := float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e6
		if sp.Name == "queue-wait" {
			wait = append(wait, ms)
		} else {
			runMS = append(runMS, ms)
		}
	}
	s.mu.Unlock()
	if len(runMS) == 0 {
		return errors.New("the traced phase recorded no run spans")
	}
	m.set("server.queue_wait_ms_p50", percentile(wait, 50), "ms")
	m.set("server.queue_wait_ms_p99", percentile(wait, 99), "ms")
	m.set("server.run_ms_p50", percentile(runMS, 50), "ms")
	m.set("server.run_ms_p99", percentile(runMS, 99), "ms")

	t0 := time.Now()
	for _, sk := range s.universe {
		if _, _, err := server.ResolveConfig(&sk.req, server.Limits{}); err != nil {
			return err
		}
	}
	m.set("server.resolve_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(len(s.universe)), "us")

	// The gateway hop: a cache hit routed through the gateway, minus the
	// same request sent straight to the node the ring says owns it.
	ring := cluster.NewRing(serveNodes, 0)
	ctx := context.Background()
	var hop []float64
	for i := 0; i < s.b.sz.hopPairs; i++ {
		sk := s.gen.warm[i%len(s.gen.warm)]
		t0 := time.Now()
		job, err := s.gcl.SubmitJob(ctx, &sk.req)
		via := time.Since(t0)
		s.b.t.op(s.observe(sk, job, err))
		t0 = time.Now()
		job, err = s.nodeCl[ring.Owner(sk.key)].SubmitJob(ctx, &sk.req)
		direct := time.Since(t0)
		s.b.t.op(s.observe(sk, job, err))
		hop = append(hop, float64((via-direct).Nanoseconds())/1e6)
	}
	m.set("cluster.hop_ms_p50", percentile(hop, 50), "ms")
	m.set("cluster.hop_ms_p99", percentile(hop, 99), "ms")
	return nil
}

// serviceProbe measures the service rows for the workloads that do not
// use the service: a short traced closed loop over a fresh cluster.
func serviceProbe(b *bench, m metrics) error {
	s, err := newServeBench(b)
	if err != nil {
		return err
	}
	defer s.teardown()
	if err := s.setup(); err != nil {
		return err
	}
	s.measure(secs(b.sz.probeSeconds), true)
	s.check()
	return s.serviceLayers(m)
}

func slogDiscard() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }
