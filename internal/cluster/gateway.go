package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tcsim/client"
	"tcsim/internal/obs"
	"tcsim/internal/server"
)

// Node is one backend tcserved instance. Name is its stable ring
// identity — keys hash onto names, not URLs, so a node restarted on a
// different address keeps its shard.
type Node struct {
	Name string
	URL  string
}

// Config assembles a Gateway.
type Config struct {
	// Nodes is the static backend list (ROADMAP: dynamic membership
	// later; the ring abstraction already supports rebuilding).
	Nodes []Node
	// Replicas is the virtual-node count per node (0 = DefaultReplicas).
	Replicas int
	// ProbeInterval spaces readiness probe rounds (0 = 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (0 = 2s).
	ProbeTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// Retry is the per-node retry policy for proxied calls: a 429 backs
	// off honoring Retry-After (clamped to the policy's MaxDelay) before
	// the gateway re-hashes to the next ring replica. The zero value
	// selects 2 attempts with a 100ms base and 1s cap.
	Retry client.RetryPolicy
	// Logger receives gateway events (nil discards).
	Logger *slog.Logger
	// HTTPClient overrides the transport of every call to a node:
	// proxied requests, readiness probes, trace proxying and span
	// collation (nil = a dedicated client).
	HTTPClient *http.Client
}

// gwMetrics are the gateway's own counters. A node's counters are on
// that node's /metrics; the gateway does not restate them.
type gwMetrics struct {
	start       time.Time
	jobsOK      atomic.Uint64
	jobsErr     atomic.Uint64
	retries     atomic.Uint64 // same-node retry attempts (backoff honored)
	rehashes    atomic.Uint64 // failovers to the next ring replica
	demotions   atomic.Uint64
	promotions  atomic.Uint64
	traceHits   atomic.Uint64 // trace CDN proxy requests served by some node
	traceMisses atomic.Uint64 // ... that no node could serve
}

// Gateway fronts a tcserved cluster: it speaks the exact wire schema of
// a single node, so client.Client (and every existing tool) works
// unchanged against it.
type Gateway struct {
	cfg          Config
	nodes        []Node
	ring         *Ring
	clients      []*client.Client // proxy path, retry policy installed
	probeClients []*client.Client // probe path, no retries
	health       []*nodeHealth
	httpc        *http.Client
	mux          *http.ServeMux
	log          *slog.Logger
	met          *gwMetrics
	spans        *obs.Spanner // the process's span starter and its one span ring
	draining     atomic.Bool

	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// New builds a gateway over the given backends.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: at least one node is required")
	}
	names := make([]string, len(cfg.Nodes))
	seen := map[string]bool{}
	for i, n := range cfg.Nodes {
		if n.Name == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node %d needs both a name and a URL", i)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		names[i] = n.Name
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = client.RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.25}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}

	g := &Gateway{
		cfg:   cfg,
		nodes: cfg.Nodes,
		ring:  NewRing(names, cfg.Replicas),
		httpc: httpc,
		log:   log,
		met:   &gwMetrics{start: time.Now()},
		spans: obs.NewSpanner("tcgate", obs.NewSpanRing(0)),
	}
	for _, n := range cfg.Nodes {
		retry := cfg.Retry
		node := n.Name
		// OnRetry gets no request context, so this line cannot carry
		// the trace ID the other proxy lines do.
		retry.OnRetry = func(attempt int, err error, d time.Duration) {
			g.met.retries.Add(1)
			g.log.Warn("retry", "node", node, "attempt", attempt, "backoff", d, "error", err.Error())
		}
		g.clients = append(g.clients, client.New(n.URL).WithHTTPClient(httpc).WithRetry(retry))
		g.probeClients = append(g.probeClients, client.New(n.URL).WithHTTPClient(httpc))
		h := &nodeHealth{healthy: true} // optimistic: passive demotion corrects fast
		g.health = append(g.health, h)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", g.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleGetJob)
	mux.HandleFunc("GET /v1/passes", g.handlePasses)
	mux.HandleFunc("GET /v1/policies", g.handlePolicies)
	mux.HandleFunc("GET /v1/traces/{sha}", g.handleTraces) // also serves HEAD
	mux.HandleFunc("GET /v1/cluster", g.handleCluster)
	mux.HandleFunc("GET /v1/trace/{id}", g.handleCollectTrace)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /healthz/ready", g.handleReady)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /debug/spans", server.DebugSpans(g.spans))
	g.mux = mux
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Start launches the background readiness-probe loop (one synchronous
// round first, so boot-time health is real before the first request).
func (g *Gateway) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	g.probeCancel = cancel
	g.probeDone = make(chan struct{})
	g.probeAll(ctx)
	go func() {
		defer close(g.probeDone)
		g.probeLoop(ctx)
	}()
}

// BeginDrain flips the gateway's own readiness to 503; proxying
// continues until Shutdown.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// Shutdown stops the probe loop.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.BeginDrain()
	if g.probeCancel != nil {
		g.probeCancel()
		select {
		case <-g.probeDone:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Spanner exposes the gateway's span starter and ring (SIGQUIT dumps).
func (g *Gateway) Spanner() *obs.Spanner { return g.spans }

// Healthy counts currently routable nodes.
func (g *Gateway) Healthy() int {
	n := 0
	for _, h := range g.health {
		if h.ok() {
			n++
		}
	}
	return n
}

// --- helpers ---

// writeUpstream relays a proxy-path failure: structured backend errors
// pass through verbatim (status, code, Retry-After and all); anything
// else — typically "no node could serve this" — becomes a 502.
func (g *Gateway) writeUpstream(w http.ResponseWriter, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		status := ae.Status
		if status == 0 {
			status = http.StatusBadGateway
		}
		server.WriteError(w, status, ae.Code, ae.Message, ae.RetryAfterSecs)
		return
	}
	server.WriteError(w, http.StatusBadGateway, "bad_gateway",
		"no healthy backend could serve the request: "+err.Error(), 0)
}

// startRoot opens the gateway's root span for a proxied request and
// pins the request ID: the caller's (sanitized) if present, a freshly
// minted one otherwise — the gateway is where a trace is born, so every
// proxied request gets a usable trace ID even from a bare curl. The
// returned context carries the root span and makes every backend call
// forward the ID; the returned finish must run before the response body
// is written, so a client that immediately asks GET /v1/trace/{rid}
// finds the root already committed.
func (g *Gateway) startRoot(w http.ResponseWriter, r *http.Request) (context.Context, *obs.Span, string) {
	rid := obs.SanitizeID(r.Header.Get("X-Request-ID"))
	if rid == "" {
		rid = obs.NewSpanID()
	}
	w.Header().Set("X-Request-ID", rid)
	parent := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
	ctx, sp := g.spans.StartRemote(r.Context(), rid, parent, r.Method+" "+r.URL.Path)
	return client.WithRequestID(ctx, rid), sp, rid
}

// terminalUpstream reports errors that prove the request itself is bad
// (or genuinely done): a structured backend response other than the
// load-shedding statuses. Those pass through; everything else — 429 after
// the per-node retry budget, 5xx, transport failures — triggers
// failover to the next ring replica.
func terminalUpstream(err error) bool {
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return false
	}
	switch ae.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return false
	}
	return true
}

// tryNodes runs call against key's ring preference order: healthy
// candidates first, every candidate as a last resort (health data may
// be stale). Demotes nodes that fail with transport/5xx errors, counts
// re-hashes, and returns the index of the node that answered. Each
// candidate runs inside an "attempt" span (a child of the request's
// root span, forwarded to the backend as the trace parent), so a
// failover walk is a visible sequence of attempts — the failed ones
// carrying their error — instead of mystery latency.
func tryNodes[T any](g *Gateway, ctx context.Context, order []int, call func(ctx context.Context, i int, c *client.Client) (T, error)) (T, int, error) {
	var zero T
	candidates := make([]int, 0, 2*len(order))
	for _, i := range order {
		if g.health[i].ok() {
			candidates = append(candidates, i)
		}
	}
	// Stale health must never brick a key: demoted nodes form a second
	// tier in the same ring order.
	for _, i := range order {
		if !g.health[i].ok() {
			candidates = append(candidates, i)
		}
	}
	traceID := ""
	if rs := obs.SpanFrom(ctx); rs != nil {
		traceID = rs.TraceID
	}
	var lastErr error
	for _, i := range candidates {
		if err := ctx.Err(); err != nil {
			return zero, -1, err
		}
		actx, sp := g.spans.Start(ctx, "attempt")
		sp.SetAttr("node", g.nodes[i].Name)
		if i != order[0] {
			// Any attempt off the primary replica — whether the owner
			// failed just now or was already demoted — is a re-hash.
			g.met.rehashes.Add(1)
			sp.SetAttr("rehash", "true")
		}
		v, err := call(client.WithSpanParent(actx, sp.ID()), i, g.clients[i])
		if err == nil {
			sp.SetAttr("outcome", "ok")
			sp.Finish()
			if g.health[i].markUp() {
				g.met.promotions.Add(1)
				g.log.Info("node promoted", "node", g.nodes[i].Name, "via", "proxy")
			}
			return v, i, nil
		}
		sp.SetError(err)
		if terminalUpstream(err) {
			// The backend answered definitively; its word is the cluster's.
			sp.SetAttr("outcome", "terminal")
			sp.Finish()
			return zero, i, err
		}
		sp.SetAttr("outcome", "failover")
		sp.Finish()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status >= 500 {
			// Transport failure or 5xx: the node itself is suspect.
			if g.health[i].markDown(err) {
				g.met.demotions.Add(1)
				g.log.Warn("node demoted", "node", g.nodes[i].Name, "via", "proxy",
					"trace_id", traceID, "span_id", sp.ID(), "error", err.Error())
			}
		}
		lastErr = err
		g.log.Warn("rehash", "node", g.nodes[i].Name,
			"trace_id", traceID, "span_id", sp.ID(), "error", err.Error())
	}
	if lastErr == nil {
		lastErr = errors.New("no candidate nodes")
	}
	return zero, -1, lastErr
}

// --- job routing ---

// prefixID namespaces a backend job ID with its node index so polls
// route back to the node that owns the job. Backend IDs never contain
// "." (they are "j" + hex), so the encoding is unambiguous.
func prefixID(node int, id string) string { return "n" + strconv.Itoa(node) + "." + id }

// splitID undoes prefixID.
func splitID(id string) (node int, rest string, ok bool) {
	if !strings.HasPrefix(id, "n") {
		return 0, "", false
	}
	head, rest, found := strings.Cut(id[1:], ".")
	if !found || rest == "" {
		return 0, "", false
	}
	n, err := strconv.Atoi(head)
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, rest, true
}

// nodeJob is a node's answer to one job exchange, relayed as it is.
type nodeJob struct {
	body  []byte // the node's body, exactly as it sent it
	idEnd int    // body[len(server.JobBodyOpen):idEnd] is the node's job ID
}

// id is the node's own ID for the job.
func (j nodeJob) id() string { return string(j.body[len(server.JobBodyOpen):j.idEnd]) }

// fetchJob runs one job exchange with a node and returns its body after
// two checks: it is valid JSON, and it opens with a node job ID
// (server.LeadingJobID). The gateway relays a job body, it never decodes
// or re-encodes one. A body that fails either check is a decode error,
// which fails over like any other node failure.
func fetchJob(ctx context.Context, c *client.Client, method, path string, in any) (nodeJob, error) {
	body, err := c.Raw(ctx, method, path, in)
	if err != nil {
		return nodeJob{}, err
	}
	end := server.LeadingJobID(body)
	if end < 0 || !json.Valid(body) {
		return nodeJob{}, fmt.Errorf("cluster: decode %s %s response: not a job envelope", method, path)
	}
	return nodeJob{body: body, idEnd: end}, nil
}

// relayJob writes a node's job body under the gateway's ID for it: the
// body opens {"id":"n<node>. and goes on with the node's bytes after
// their own {"id":", so the node's job ID follows the prefix. Nothing
// else is copied or parsed.
func relayJob(w http.ResponseWriter, status, node int, j nodeJob) {
	open := make([]byte, 0, 24)
	open = append(open, server.JobBodyOpen+"n"...)
	open = strconv.AppendInt(open, int64(node), 10)
	open = append(open, '.')
	rest := j.body[len(server.JobBodyOpen):]
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(open)+len(rest)))
	w.WriteHeader(status)
	w.Write(open)
	w.Write(rest)
}

// handleJobs implements POST /v1/jobs: resolve the canonical config
// key exactly as a node would, hash it onto the ring, and proxy — with
// per-node retry/backoff and re-hash failover. Submission is idempotent
// by key, which is what makes blind failover safe: the worst case is a
// cache hit on the second node.
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	ctx, root, rid := g.startRoot(w, r)
	defer root.Finish()
	var req client.JobRequest
	if !server.DecodeBody(w, r, g.cfg.MaxBodyBytes, &req) {
		root.SetAttr("outcome", "bad_request")
		return
	}
	_, key, err := server.ResolveConfig(&req, server.Limits{})
	if err != nil {
		root.SetError(err)
		if server.IsBadRequest(err) {
			server.WriteError(w, http.StatusBadRequest, "invalid_argument", err.Error(), 0)
		} else {
			server.WriteError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		}
		return
	}
	async := r.URL.Query().Get("async") == "1"
	root.SetAttr("key", key)
	if async {
		root.SetAttr("async", "true")
	}
	path := "/v1/jobs"
	if async {
		path += "?async=1"
	}
	job, idx, err := tryNodes(g, ctx, g.ring.Order(key), func(ctx context.Context, _ int, c *client.Client) (nodeJob, error) {
		return fetchJob(ctx, c, http.MethodPost, path, &req)
	})
	if err != nil {
		g.met.jobsErr.Add(1)
		g.log.Warn("job proxy failed", "trace_id", rid, "request_id", rid,
			"span_id", root.ID(), "key", key, "error", err.Error())
		root.SetError(err)
		root.Finish()
		g.writeUpstream(w, err)
		return
	}
	g.met.jobsOK.Add(1)
	id := prefixID(idx, job.id())
	g.log.Info("job proxied", "trace_id", rid, "request_id", rid, "span_id", root.ID(),
		"key", key, "node", g.nodes[idx].Name, "job_id", id)
	root.SetAttr("node", g.nodes[idx].Name)
	root.SetAttr("job", id)
	root.SetAttr("outcome", "ok")
	// Commit the root before the body goes out: a client that reads the
	// response and immediately collates GET /v1/trace/{rid} must find it.
	root.Finish()
	status := http.StatusOK
	if async {
		status = http.StatusAccepted
	}
	relayJob(w, status, idx, job)
}

// handleGetJob implements GET /v1/jobs/{id}: the node index embedded in
// the gateway-issued ID routes the poll; no failover — the job's state
// lives on exactly that node.
func (g *Gateway) handleGetJob(w http.ResponseWriter, r *http.Request) {
	ctx, root, _ := g.startRoot(w, r)
	defer root.Finish()
	id := r.PathValue("id")
	node, rest, ok := splitID(id)
	if !ok || node >= len(g.nodes) {
		root.SetAttr("outcome", "not_found")
		server.WriteError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no job %q (gateway job IDs look like n0.j123)", id), 0)
		return
	}
	root.SetAttr("node", g.nodes[node].Name)
	job, err := fetchJob(client.WithSpanParent(ctx, root.ID()), g.clients[node],
		http.MethodGet, "/v1/jobs/"+url.PathEscape(rest), nil)
	if err != nil {
		root.SetError(err)
		root.Finish()
		g.writeUpstream(w, err)
		return
	}
	root.Finish()
	relayJob(w, http.StatusOK, node, job)
}

// --- registry proxies ---

func (g *Gateway) handlePasses(w http.ResponseWriter, r *http.Request) {
	ctx, root, _ := g.startRoot(w, r)
	defer root.Finish()
	out, _, err := tryNodes(g, ctx, g.anyOrder(), func(ctx context.Context, _ int, c *client.Client) ([]client.Pass, error) {
		return c.Passes(ctx)
	})
	if err != nil {
		root.SetError(err)
		g.writeUpstream(w, err)
		return
	}
	root.Finish()
	server.WriteJSON(w, http.StatusOK, out)
}

func (g *Gateway) handlePolicies(w http.ResponseWriter, r *http.Request) {
	ctx, root, _ := g.startRoot(w, r)
	defer root.Finish()
	out, _, err := tryNodes(g, ctx, g.anyOrder(), func(ctx context.Context, _ int, c *client.Client) ([]client.Policy, error) {
		return c.Policies(ctx)
	})
	if err != nil {
		root.SetError(err)
		g.writeUpstream(w, err)
		return
	}
	root.Finish()
	server.WriteJSON(w, http.StatusOK, out)
}

// anyOrder is the preference order for node-agnostic requests.
func (g *Gateway) anyOrder() []int {
	out := make([]int, len(g.nodes))
	for i := range out {
		out[i] = i
	}
	return out
}

// --- trace CDN proxy ---

// handleTraces implements GET/HEAD /v1/traces/{sha} at the gateway: ask
// each node (hash-spread, healthy first) for the content-addressed
// trace and stream back the first hit. This is what lets a node that
// missed a trace fetch it from whichever peer captured it — one
// workload, one capture, cluster-wide.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	sha := r.PathValue("sha")
	budget := r.URL.Query().Get("budget")
	for _, i := range g.orderHealthyFirst(sha) {
		u := fmt.Sprintf("%s/v1/traces/%s?budget=%s", g.nodes[i].URL, url.PathEscape(sha), url.QueryEscape(budget))
		req, err := http.NewRequestWithContext(r.Context(), r.Method, u, nil)
		if err != nil {
			continue
		}
		resp, err := g.httpc.Do(req)
		if err != nil {
			if g.health[i].markDown(err) {
				g.met.demotions.Add(1)
				g.log.Warn("node demoted", "node", g.nodes[i].Name, "via", "trace-proxy", "error", err.Error())
			}
			continue
		}
		if resp.StatusCode == http.StatusOK {
			g.met.traceHits.Add(1)
			for _, h := range []string{"Content-Type", "Content-Length", "X-Trace-Workload", "X-Trace-Budget"} {
				if v := resp.Header.Get(h); v != "" {
					w.Header().Set(h, v)
				}
			}
			w.Header().Set("X-Trace-Node", g.nodes[i].Name)
			w.WriteHeader(http.StatusOK)
			io.Copy(w, resp.Body)
			resp.Body.Close()
			return
		}
		if resp.StatusCode == http.StatusBadRequest {
			// Malformed budget: every node would say the same.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			server.WriteError(w, http.StatusBadRequest, "invalid_argument",
				"budget query parameter must be a positive integer", 0)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	g.met.traceMisses.Add(1)
	server.WriteError(w, http.StatusNotFound, "not_found",
		fmt.Sprintf("no node holds a trace for program %s", sha), 0)
}

// orderHealthyFirst is ring preference order for key with demoted nodes
// moved to the back.
func (g *Gateway) orderHealthyFirst(key string) []int {
	order := g.ring.Order(key)
	out := make([]int, 0, len(order))
	for _, i := range order {
		if g.health[i].ok() {
			out = append(out, i)
		}
	}
	for _, i := range order {
		if !g.health[i].ok() {
			out = append(out, i)
		}
	}
	return out
}

// --- cluster status & health ---

// handleCluster implements GET /v1/cluster.
func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, g.Status())
}

// Status snapshots the gateway's cluster view.
func (g *Gateway) Status() *client.ClusterStatus {
	cs := &client.ClusterStatus{RingPoints: len(g.ring.points)}
	for i, n := range g.nodes {
		healthy, lastErr, demotions := g.health[i].snapshot()
		if healthy {
			cs.Healthy++
		}
		cs.Nodes = append(cs.Nodes, client.NodeStatus{
			Name: n.Name, URL: n.URL, Healthy: healthy,
			Demotions: demotions, LastError: lastErr,
		})
	}
	return cs
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady: the gateway is ready while it is not draining and at
// least one backend is routable.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		server.WriteError(w, http.StatusServiceUnavailable, "draining", "gateway is draining", 2)
		return
	}
	if g.Healthy() == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "bad_gateway", "no healthy backend nodes", 2)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
