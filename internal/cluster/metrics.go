package cluster

import (
	"net/http"
	"time"

	"tcsim/internal/obs"
)

// handleMetrics implements GET /metrics: what the gateway itself knows,
// its routing counters and each node's routability. It sends no request
// to a node; each node's own /metrics carries its queue, cache and trace
// store.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ExpoContentType)
	e := obs.NewExpo(w)

	e.Gauge("tcgate_uptime_seconds", "Seconds since the gateway started.",
		time.Since(g.met.start).Seconds())
	e.Gauge("tcgate_nodes", "Configured backend nodes.", float64(len(g.nodes)))
	e.Gauge("tcgate_nodes_healthy", "Backend nodes currently routable.", float64(g.Healthy()))
	e.Gauge("tcgate_ring_points", "Virtual nodes on the consistent-hash ring.",
		float64(len(g.ring.points)))
	e.CounterVec("tcgate_jobs_proxied_total", "Jobs proxied through the gateway by outcome.",
		[]obs.LabeledValue{
			{Labels: [][2]string{{"outcome", "ok"}}, Value: float64(g.met.jobsOK.Load())},
			{Labels: [][2]string{{"outcome", "error"}}, Value: float64(g.met.jobsErr.Load())},
		})
	e.Counter("tcgate_retries_total", "Same-node retry attempts (backoff, Retry-After honored).",
		float64(g.met.retries.Load()))
	e.Counter("tcgate_rehashes_total", "Requests re-hashed to a later ring replica.",
		float64(g.met.rehashes.Load()))
	e.Counter("tcgate_demotions_total", "Node demotions (probe or proxy failure).",
		float64(g.met.demotions.Load()))
	e.Counter("tcgate_promotions_total", "Node promotions back into rotation.",
		float64(g.met.promotions.Load()))
	e.CounterVec("tcgate_trace_proxy_total", "Trace CDN proxy lookups by outcome.",
		[]obs.LabeledValue{
			{Labels: [][2]string{{"outcome", "hit"}}, Value: float64(g.met.traceHits.Load())},
			{Labels: [][2]string{{"outcome", "miss"}}, Value: float64(g.met.traceMisses.Load())},
		})

	up := make([]obs.LabeledValue, len(g.nodes))
	for i, n := range g.nodes {
		v := 0.0
		if g.health[i].ok() {
			v = 1
		}
		up[i] = obs.LabeledValue{Labels: [][2]string{{"node", n.Name}}, Value: v}
	}
	e.GaugeVec("tcgate_node_up", "Whether the gateway routes to the node (the health bit its probes and proxied calls set).", up)
}
