package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"tcsim/internal/obs"
)

// ridServer records the X-Request-ID of each incoming request and
// serves a canned handler.
func ridServer(t *testing.T, handler http.HandlerFunc) (*Client, *[]string) {
	t.Helper()
	var seen []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, r.Header.Get("X-Request-ID"))
		handler(w, r)
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL), &seen
}

func okHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
}

// TestRequestIDPinned: WithRequestID pins the outgoing header verbatim
// across every call made under that context.
func TestRequestIDPinned(t *testing.T) {
	cl, seen := ridServer(t, okHealth)
	ctx := WithRequestID(context.Background(), "pinned-rid-1")
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if len(*seen) != 2 || (*seen)[0] != "pinned-rid-1" || (*seen)[1] != "pinned-rid-1" {
		t.Errorf("server saw request IDs %q, want pinned-rid-1 twice", *seen)
	}
}

// TestRequestIDGenerated: without a pinned ID, every call carries a
// fresh non-empty ID.
func TestRequestIDGenerated(t *testing.T) {
	cl, seen := ridServer(t, okHealth)
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if len(*seen) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(*seen))
	}
	for i, rid := range *seen {
		if rid == "" {
			t.Errorf("request %d carried no X-Request-ID", i)
		}
	}
	if (*seen)[0] == (*seen)[1] {
		t.Errorf("auto-generated IDs repeated: %q", (*seen)[0])
	}
}

// TestActiveSpanPropagates: a call under a context holding an active
// span sends its trace ID as the request ID and names it as the parent;
// WithRequestID and WithSpanParent each override their half.
func TestActiveSpanPropagates(t *testing.T) {
	type sent struct{ rid, parent string }
	var seen []sent
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, sent{r.Header.Get(obs.RequestIDHeader), r.Header.Get(obs.TraceParentHeader)})
	}))
	t.Cleanup(srv.Close)
	cl := New(srv.URL)
	spans := obs.NewSpanner("caller", obs.NewSpanRing(0))
	ctx, sp := spans.StartRemote(context.Background(), "trace-abc", "", "call")
	for _, c := range []struct {
		name string
		ctx  context.Context
		want sent
	}{
		{"active span", ctx, sent{"trace-abc", "trace-abc:" + sp.ID()}},
		{"pinned request ID", WithRequestID(ctx, "pinned-rid"), sent{"pinned-rid", "pinned-rid:" + sp.ID()}},
		{"pinned parent", WithSpanParent(ctx, "pinned-parent"), sent{"trace-abc", "trace-abc:pinned-parent"}},
		{"both pinned", WithSpanParent(WithRequestID(ctx, "pinned-rid"), "pinned-parent"), sent{"pinned-rid", "pinned-rid:pinned-parent"}},
	} {
		seen = nil
		if err := cl.Health(c.ctx); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 || seen[0] != c.want {
			t.Errorf("%s: server saw %+v, want %+v", c.name, seen, c.want)
		}
	}
	seen = nil
	if err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].rid == "" || seen[0].parent != "" {
		t.Errorf("no span: server saw %+v, want a fresh request ID and no parent", seen)
	}
}

// TestAPIErrorCarriesRequestID: a structured error response fills
// APIError.RequestID from the response header so callers can correlate
// failures with daemon logs.
func TestAPIErrorCarriesRequestID(t *testing.T) {
	cl, _ := ridServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid_argument","message":"bad workload"}}`))
	})
	ctx := WithRequestID(context.Background(), "err-rid-7")
	_, err := cl.SubmitJob(ctx, &JobRequest{Workload: "nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if apiErr.Code != "invalid_argument" || apiErr.Status != http.StatusBadRequest {
		t.Errorf("APIError = %+v, want invalid_argument/400", apiErr)
	}
	if apiErr.RequestID != "err-rid-7" {
		t.Errorf("APIError.RequestID = %q, want err-rid-7", apiErr.RequestID)
	}
}

// TestAPIErrorRequestIDOnUnstructuredError: even a non-JSON error body
// yields an error annotated with the exchange's request ID.
func TestAPIErrorRequestIDOnUnstructuredError(t *testing.T) {
	cl, _ := ridServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	err := cl.Health(WithRequestID(context.Background(), "raw-rid-9"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if apiErr.RequestID != "raw-rid-9" {
		t.Errorf("APIError.RequestID = %q, want raw-rid-9", apiErr.RequestID)
	}
}
