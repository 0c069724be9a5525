package server

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tcsim/internal/obs"
)

// eventLog records, in order, what happens to a daemon under Serve.
type eventLog struct {
	mu  sync.Mutex
	evs []string
}

func (l *eventLog) add(ev string) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.evs)
}

// fakeDaemon records the calls Serve makes on it.
type fakeDaemon struct{ log *eventLog }

func (d fakeDaemon) Spanner() *obs.Spanner { return obs.NewSpanner("fake", obs.NewSpanRing(0)) }
func (d fakeDaemon) BeginDrain()           { d.log.add("BeginDrain") }
func (d fakeDaemon) Shutdown(context.Context) error {
	d.log.add("Shutdown")
	return nil
}

// closeListener records when the server stops accepting.
type closeListener struct {
	net.Listener
	log *eventLog
}

func (l closeListener) Close() error {
	l.log.add("listener closed")
	return l.Listener.Close()
}

// serveHeld runs Serve with the given drain deadline on a loopback
// listener, with one request to a handler that holds it until release
// closes, and cancels Serve's stop context once the request is in the
// handler. It returns Serve's exit code channel, the held request's
// status channel and the logs Serve wrote.
func serveHeld(t *testing.T, drain time.Duration, ev *eventLog, release <-chan struct{}) (<-chan int, <-chan int, *syncBuffer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		ev.add("request done")
	})
	logs := &syncBuffer{}
	stop, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	code := make(chan int, 1)
	go func() {
		code <- Serve(stop, closeListener{ln, ev}, h, fakeDaemon{ev}, drain, t.TempDir(),
			slog.New(slog.NewTextHandler(logs, nil)))
	}()
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/held")
		if err != nil {
			t.Errorf("held request: %v", err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	cancel()
	return code, status, logs
}

// TestServeDrainsInOrder: once stop ends, Serve flips readiness before
// the listener stops accepting, lets the request in flight finish with
// its 200, calls the daemon's Shutdown only after that, logs "drained"
// and returns 0.
func TestServeDrainsInOrder(t *testing.T) {
	ev := &eventLog{}
	release := make(chan struct{})
	code, status, logs := serveHeld(t, 10*time.Second, ev, release)
	for deadline := time.Now().Add(5 * time.Second); !slices.Contains(ev.list(), "listener closed"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the listener never closed; events %v", ev.list())
		}
	}
	close(release)
	if got := <-status; got != http.StatusOK {
		t.Errorf("request in flight at stop answered %d, want 200", got)
	}
	if got := <-code; got != 0 {
		t.Errorf("Serve returned %d after a clean drain, want 0; logs:\n%s", got, logs)
	}
	want := []string{"BeginDrain", "listener closed", "request done", "Shutdown"}
	if got := ev.list(); !slices.Equal(got, want) {
		t.Errorf("drain ran %v, want %v", got, want)
	}
	if !strings.Contains(logs.String(), "msg=drained") {
		t.Errorf("Serve did not log drained:\n%s", logs)
	}
}

// TestServeDrainDeadline: a request held past the drain deadline makes
// the drain unclean, and Serve returns 1 without logging "drained".
func TestServeDrainDeadline(t *testing.T) {
	ev := &eventLog{}
	release := make(chan struct{})
	code, status, logs := serveHeld(t, 50*time.Millisecond, ev, release)
	got := <-code
	close(release)
	<-status
	if got != 1 {
		t.Errorf("Serve returned %d with a request held past the drain deadline, want 1", got)
	}
	if strings.Contains(logs.String(), "msg=drained") {
		t.Errorf("Serve logged drained after missing its deadline:\n%s", logs)
	}
}
