package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// nodeHealth tracks one backend's routability. Two signals feed it:
// active readiness probes (GET /healthz/ready on an interval) and
// passive observations from proxied traffic — a transport failure or
// 5xx demotes the node immediately, without waiting for the next probe.
// A demoted node keeps receiving probes and is promoted the moment one
// succeeds; jobs hash back onto it with no other coordination.
type nodeHealth struct {
	mu        sync.Mutex
	healthy   bool
	lastErr   string
	demotions atomic.Uint64
}

func (h *nodeHealth) ok() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.healthy
}

// markUp promotes the node (no-op when already healthy).
func (h *nodeHealth) markUp() (promoted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	promoted = !h.healthy
	h.healthy = true
	h.lastErr = ""
	return promoted
}

// markDown demotes the node, recording why (no-op counter-wise when
// already demoted; the newest error still wins).
func (h *nodeHealth) markDown(err error) (demoted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	demoted = h.healthy
	h.healthy = false
	if err != nil {
		h.lastErr = err.Error()
	}
	if demoted {
		h.demotions.Add(1)
	}
	return demoted
}

func (h *nodeHealth) snapshot() (healthy bool, lastErr string, demotions uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.healthy, h.lastErr, h.demotions.Load()
}

// probeLoop drives readiness probes against every node until ctx ends.
// One round probes all nodes concurrently; rounds are interval apart.
// The first round is Start's own, so the loop's first round waits a
// full interval: a long interval freezes the health view.
func (g *Gateway) probeLoop(ctx context.Context) {
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.probeAll(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// probeAll runs one probe round.
func (g *Gateway) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range g.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.probe(ctx, i)
		}(i)
	}
	wg.Wait()
}

// probe checks one node's readiness and updates its health state.
func (g *Gateway) probe(ctx context.Context, i int) {
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	if err := g.probeClients[i].Ready(pctx); err != nil {
		if ctx.Err() == nil { // else Shutdown cut the probe short: it says nothing of the node
			g.demote(i, err)
		}
		return
	}
	g.promote(i)
}

// promote marks node i up, counting and logging the transition; args
// are added to the log line.
func (g *Gateway) promote(i int, args ...any) {
	if g.health[i].markUp() {
		g.met.promotions.Add(1)
		g.log.Info("node promoted", append([]any{"node", g.nodes[i].Name}, args...)...)
	}
}

// demote marks node i down after err, counting and logging the
// transition; args are added to the log line.
func (g *Gateway) demote(i int, err error, args ...any) {
	if g.health[i].markDown(err) {
		g.met.demotions.Add(1)
		g.log.Warn("node demoted", append([]any{"node", g.nodes[i].Name, "error", err.Error()}, args...)...)
	}
}
