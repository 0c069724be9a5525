package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcsim/client"
	"tcsim/internal/obs"
	"tcsim/internal/server"
)

// TestDaemonsAnswerFrontDoorAlike drives a node's handler and a
// gateway's handler through the same table: both run one front door,
// one health surface and one pair of registry routes. The gateway's
// only node is down, so everything it answers here it answers itself.
func TestDaemonsAnswerFrontDoorAlike(t *testing.T) {
	srv := server.New(server.Config{Service: "node0"})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	g, err := New(Config{Nodes: []Node{{Name: "node0", URL: dead.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Start() // its one probe finds the node down
	t.Cleanup(func() { g.Shutdown(context.Background()) })
	if n := g.Healthy(); n != 0 {
		t.Fatalf("%d routable nodes behind the gateway, want none", n)
	}

	type daemon interface {
		Handler() http.Handler
		Spanner() *obs.Spanner
		BeginDrain()
	}
	serve := func(d daemon, method, path, body string, hdr ...string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, req)
		return rec
	}
	registries := map[string][]byte{}
	for _, d := range []struct {
		name string
		d    daemon
	}{{"tcserved", srv}, {"tcgate", g}} {
		t.Run(d.name, func(t *testing.T) {
			for _, c := range []struct{ sent, want string }{
				{"trace-abc.123_z", "trace-abc.123_z"},
				{strings.Repeat("x", 65), ""},
				{"a:b", ""},
				{"", ""},
			} {
				got := serve(d.d, http.MethodGet, "/healthz", "", obs.RequestIDHeader, c.sent).Header().Get(obs.RequestIDHeader)
				switch {
				case c.want != "" && got != c.want:
					t.Errorf("sent X-Request-ID %q, echoed %q, want it adopted", c.sent, got)
				case c.want == "" && (got == "" || got == c.sent || obs.SanitizeID(got) != got):
					t.Errorf("sent X-Request-ID %q, echoed %q, want a fresh valid ID", c.sent, got)
				}
			}

			for i, c := range []struct {
				method, path, body string
				status             int
			}{
				{http.MethodGet, "/healthz", "", http.StatusOK},
				{http.MethodGet, "/v1/passes", "", http.StatusOK},
				{http.MethodPost, "/v1/jobs", "{", http.StatusBadRequest},
				{http.MethodGet, "/v1/jobs/nope", "", http.StatusNotFound},
			} {
				rid := fmt.Sprintf("%s-%d", d.name, i)
				rec := serve(d.d, c.method, c.path, c.body,
					obs.RequestIDHeader, rid, obs.TraceParentHeader, obs.TraceParent(rid, "caller-span"))
				if rec.Code != c.status {
					t.Errorf("%s %s = %d, want %d", c.method, c.path, rec.Code, c.status)
				}
				if got := rec.Header().Get(obs.RequestIDHeader); got != rid {
					t.Errorf("%s %s (%d) echoed X-Request-ID %q, want %q", c.method, c.path, rec.Code, got, rid)
				}
				spans := d.d.Spanner().Dump(rid).Spans
				if !strings.HasPrefix(c.path, "/v1/") {
					if len(spans) != 0 {
						t.Errorf("%s %s opened %d spans, want none outside /v1/", c.method, c.path, len(spans))
					}
					continue
				}
				var root *obs.Span
				for i := range spans {
					if spans[i].Name == c.method+" "+c.path {
						root = &spans[i]
					}
				}
				if root == nil || root.TraceID != rid || root.ParentID != "caller-span" {
					t.Errorf("%s %s: span %+v, want one in trace %s under the X-Trace-Parent span", c.method, c.path, root, rid)
				}
			}

			for _, path := range []string{"/v1/passes", "/v1/policies"} {
				rec := serve(d.d, http.MethodGet, path, "")
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s = %d, want 200", path, rec.Code)
				}
				if first, ok := registries[path]; ok && !bytes.Equal(rec.Body.Bytes(), first) {
					t.Errorf("GET %s differs between the daemons:\n%s\nvs\n%s", path, first, rec.Body)
				}
				registries[path] = rec.Body.Bytes()
			}

			d.d.BeginDrain()
			if rec := serve(d.d, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
				t.Errorf("liveness during drain = %d, want 200", rec.Code)
			}
			rec := serve(d.d, http.MethodGet, "/healthz/ready", "")
			var eb client.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusServiceUnavailable || eb.Error.Code != "draining" {
				t.Errorf("readiness during drain = %d %s, want 503 draining", rec.Code, rec.Body)
			}
		})
	}
	var passes []client.Pass
	if err := json.Unmarshal(registries["/v1/passes"], &passes); err != nil || len(passes) == 0 {
		t.Errorf("GET /v1/passes = %s (%v), want the pass registry", registries["/v1/passes"], err)
	}
}
