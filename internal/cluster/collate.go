package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"tcsim/internal/obs"
	"tcsim/internal/server"
)

// Trace collation: GET /v1/trace/{request-id} assembles one connected
// span tree for a request from the gateway's own spans plus a scrape of
// GET /debug/spans?trace= on the nodes the request touched. The
// gateway's attempt spans record which nodes those were; if the trace
// has no attempt spans (or arrived by ID only), every node is scraped —
// correctness over scrape count.

// handleCollectTrace implements GET /v1/trace/{id}.
func (g *Gateway) handleCollectTrace(w http.ResponseWriter, r *http.Request) {
	rid := obs.SanitizeID(r.PathValue("id"))
	if rid == "" {
		server.WriteError(w, http.StatusBadRequest, "invalid_argument",
			"trace ID must be a sanitized request ID", 0)
		return
	}
	local := g.spans.Dump(rid).Spans
	all := append([]obs.Span(nil), local...)
	for _, i := range g.nodesTouched(local) {
		spans, err := g.scrapeSpans(r, i, rid)
		if err != nil {
			// A dead node cannot be scraped; the tree is still the best
			// available view (and Connected honestly reports any gap).
			g.log.Warn("span scrape failed", "node", g.nodes[i].Name, "error", err.Error())
			continue
		}
		all = append(all, spans...)
	}
	server.WriteJSON(w, http.StatusOK, obs.BuildSpanTree(rid, all))
}

// nodesTouched maps the gateway's attempt spans for a trace onto node
// indexes; with no attempt spans on record it returns every node.
func (g *Gateway) nodesTouched(local []obs.Span) []int {
	byName := make(map[string]int, len(g.nodes))
	for i, n := range g.nodes {
		byName[n.Name] = i
	}
	seen := map[int]bool{}
	var out []int
	for i := range local {
		if idx, ok := byName[local[i].Attrs["node"]]; ok && !seen[idx] {
			seen[idx] = true
			out = append(out, idx)
		}
	}
	if out == nil {
		return g.anyOrder()
	}
	return out
}

// scrapeTimeout bounds one node's span fetch while collating a trace. A
// slow node costs the collation this long, not a hung request.
const scrapeTimeout = 2 * time.Second

// scrapeSpans fetches one node's spans for a trace.
func (g *Gateway) scrapeSpans(r *http.Request, i int, rid string) ([]obs.Span, error) {
	ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
	defer cancel()
	u := fmt.Sprintf("%s/debug/spans?trace=%s", g.nodes[i].URL, url.QueryEscape(rid))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s answered %s", u, resp.Status)
	}
	var dump obs.SpanDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return nil, fmt.Errorf("cluster: decode spans from %s: %w", g.nodes[i].Name, err)
	}
	return dump.Spans, nil
}
