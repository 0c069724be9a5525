package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// waitCtx signals on waiting each time Do selects on its Done channel,
// which Do does only while it waits for another call's run, so a test
// can release an owner knowing that its waiters are queued.
type waitCtx struct {
	context.Context
	waiting chan struct{}
}

func newWaitCtx(parent context.Context, n int) waitCtx {
	return waitCtx{Context: parent, waiting: make(chan struct{}, n)}
}

func (c waitCtx) Done() <-chan struct{} {
	select {
	case c.waiting <- struct{}{}:
	default:
	}
	return c.Context.Done()
}

func (c waitCtx) await(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		<-c.waiting
	}
}

// gatedRun is a run that counts its calls and blocks until release is
// closed, then returns val and err.
type gatedRun struct {
	calls   atomic.Int32
	started chan struct{}
	release chan struct{}
}

func newGatedRun() *gatedRun {
	return &gatedRun{started: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gatedRun) run(val int, err error) func() (int, error) {
	return func() (int, error) {
		g.calls.Add(1)
		g.started <- struct{}{}
		<-g.release
		return val, err
	}
}

type result struct {
	val int
	how Outcome
	err error
}

// start runs Do on its own goroutine and returns where its result lands.
func start(c *Cache[string, int], ctx context.Context, key string, run func() (int, error)) <-chan result {
	out := make(chan result, 1)
	go func() {
		v, how, err := c.Do(ctx, key, run)
		out <- result{v, how, err}
	}()
	return out
}

func TestConcurrentCallsRunOnce(t *testing.T) {
	c := New[string, int](0, nil)
	g := newGatedRun()
	const n = 8
	owner := start(c, context.Background(), "k", g.run(42, nil))
	<-g.started
	ctx := newWaitCtx(context.Background(), n)
	var waiters []<-chan result
	for i := 1; i < n; i++ {
		waiters = append(waiters, start(c, ctx, "k", g.run(-1, nil)))
	}
	ctx.await(t, n-1)
	close(g.release)
	if r := <-owner; r.val != 42 || r.how != Ran || r.err != nil {
		t.Errorf("owner got %+v, want 42 by running", r)
	}
	for i, w := range waiters {
		if r := <-w; r.val != 42 || r.how != Joined || r.err != nil {
			t.Errorf("waiter %d got %+v, want the owner's 42 by joining", i, r)
		}
	}
	if calls := g.calls.Load(); calls != 1 {
		t.Errorf("%d concurrent calls ran %d times, want 1", n, calls)
	}

	// A repeat is a hit and runs nothing.
	v, how, err := c.Do(context.Background(), "k", func() (int, error) {
		t.Error("a cached key ran again")
		return 0, nil
	})
	if v != 42 || how != Hit || err != nil {
		t.Errorf("repeat = (%d, %v, %v), want (42, Hit, nil)", v, how, err)
	}
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Errorf("Get = (%d, %v), want (42, true)", v, ok)
	}
}

func TestFailureReachesWaitersAndIsForgotten(t *testing.T) {
	c := New[string, int](0, nil)
	g := newGatedRun()
	boom := errors.New("boom")
	owner := start(c, context.Background(), "k", g.run(0, boom))
	<-g.started
	ctx := newWaitCtx(context.Background(), 2)
	w1 := start(c, ctx, "k", g.run(-1, nil))
	w2 := start(c, ctx, "k", g.run(-1, nil))
	ctx.await(t, 2)
	close(g.release)
	for i, ch := range []<-chan result{owner, w1, w2} {
		if r := <-ch; !errors.Is(r.err, boom) {
			t.Errorf("caller %d got %+v, want the owner's failure", i, r)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("a failure was cached: %+v", st)
	}
	if len(c.flights) != 0 {
		t.Errorf("%d flights left after the failure", len(c.flights))
	}
	// The next call runs again.
	v, how, err := c.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if v != 7 || how != Ran || err != nil {
		t.Errorf("after a failure: (%d, %v, %v), want (7, Ran, nil)", v, how, err)
	}
}

func TestInterruptedOwnerHandsOver(t *testing.T) {
	for _, interrupt := range []error{context.Canceled, context.DeadlineExceeded} {
		c := New[string, int](0, nil)
		g := newGatedRun()
		owner := start(c, context.Background(), "k", g.run(0, interrupt))
		<-g.started
		ctx := newWaitCtx(context.Background(), 1)
		var ran atomic.Bool
		waiter := start(c, ctx, "k", func() (int, error) {
			ran.Store(true)
			return 9, nil
		})
		ctx.await(t, 1)
		close(g.release)
		if r := <-owner; !errors.Is(r.err, interrupt) || r.how != Ran {
			t.Errorf("%v: owner got %+v", interrupt, r)
		}
		if r := <-waiter; r.val != 9 || r.how != Ran || r.err != nil || !ran.Load() {
			t.Errorf("%v: waiter got %+v (ran=%v), want 9 by running as the new owner", interrupt, r, ran.Load())
		}
		if v, ok := c.Get("k"); !ok || v != 9 {
			t.Errorf("%v: the new owner's value is not cached", interrupt)
		}
	}
}

func TestWaiterContextEndsOwnerStillCaches(t *testing.T) {
	c := New[string, int](0, nil)
	g := newGatedRun()
	owner := start(c, context.Background(), "k", g.run(5, nil))
	<-g.started
	cctx, cancel := context.WithCancel(context.Background())
	ctx := newWaitCtx(cctx, 1)
	waiter := start(c, ctx, "k", g.run(-1, nil))
	ctx.await(t, 1)
	cancel()
	if r := <-waiter; !errors.Is(r.err, context.Canceled) || r.how != Joined {
		t.Errorf("waiter got %+v, want its own context's error", r)
	}
	close(g.release)
	if r := <-owner; r.val != 5 || r.err != nil {
		t.Errorf("owner got %+v", r)
	}
	if v, ok := c.Get("k"); !ok || v != 5 {
		t.Errorf("Get = (%d, %v), want the owner's 5 cached", v, ok)
	}
	if calls := g.calls.Load(); calls != 1 {
		t.Errorf("%d runs, want 1", calls)
	}
}

func TestPanickingRunReleasesWaiters(t *testing.T) {
	c := New[string, int](0, nil)
	g := newGatedRun()
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(context.Background(), "k", func() (int, error) {
			g.started <- struct{}{}
			<-g.release
			panic("fault")
		})
	}()
	<-g.started
	ctx := newWaitCtx(context.Background(), 1)
	waiter := start(c, ctx, "k", g.run(-1, nil))
	ctx.await(t, 1)
	close(g.release)
	if p := <-panicked; p != "fault" {
		t.Errorf("the owner's panic = %v, want it to propagate", p)
	}
	if r := <-waiter; !errors.Is(r.err, errPanicked) {
		t.Errorf("waiter got %+v, want errPanicked", r)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("a panicked run was cached: %+v", st)
	}
}

func TestEvictsLeastRecentlyUsedByCost(t *testing.T) {
	c := New[string, int](10, func(v int) int64 { return int64(v) })
	put := func(k string, v int) {
		t.Helper()
		if _, how, err := c.Do(context.Background(), k, func() (int, error) { return v, nil }); how != Ran || err != nil {
			t.Fatalf("put %s: (%v, %v)", k, how, err)
		}
	}
	put("a", 4)
	put("b", 4)
	c.Get("a") // a is now more recent than b
	put("c", 4)
	if _, ok := c.Get("b"); ok {
		t.Error("b, the least recently used, was not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s was evicted", k)
		}
	}
	if st := c.Stats(); st != (Stats{Entries: 2, Cost: 8, Evictions: 1}) {
		t.Errorf("stats = %+v, want 2 entries, cost 8, 1 eviction", st)
	}

	// A value larger than the bound evicts everything else and stays.
	put("d", 20)
	if st := c.Stats(); st != (Stats{Entries: 1, Cost: 20, Evictions: 3}) {
		t.Errorf("stats = %+v, want d alone: 1 entry, cost 20, 3 evictions", st)
	}
	if v, ok := c.Get("d"); !ok || v != 20 {
		t.Error("an entry larger than the bound was not kept")
	}

	c.Clear()
	if st := c.Stats(); st != (Stats{Evictions: 3}) {
		t.Errorf("after Clear: %+v, want empty with the eviction count kept", st)
	}
}

// TestPut: a value given to Put replaces the key's value, counts at its
// own cost, is a hit for Do, and evicts the least recently used values,
// never itself.
func TestPut(t *testing.T) {
	c := New[string, int](10, func(v int) int64 { return int64(v) })
	c.Put("a", 4)
	c.Put("b", 4)
	c.Put("a", 5) // replaces a, which is now more recent than b
	if st := c.Stats(); st != (Stats{Entries: 2, Cost: 9}) {
		t.Errorf("stats = %+v, want a replaced: 2 entries, cost 9", st)
	}
	c.Put("c", 4)
	if _, ok := c.Get("b"); ok {
		t.Error("b, the least recently used, was not evicted")
	}
	if v, _, err := c.Do(context.Background(), "a", func() (int, error) {
		t.Error("a put key ran")
		return 0, nil
	}); v != 5 || err != nil {
		t.Errorf("Do after Put = (%d, %v), want the put 5", v, err)
	}
	c.Put("d", 20)
	if st := c.Stats(); st != (Stats{Entries: 1, Cost: 20, Evictions: 3}) {
		t.Errorf("stats = %+v, want d alone: 1 entry, cost 20, 3 evictions", st)
	}
	if v, ok := c.Get("d"); !ok || v != 20 {
		t.Error("Put evicted the value it added")
	}

	// A run in flight when its key is put replaces the put value.
	u := New[string, int](0, nil)
	g := newGatedRun()
	owner := start(u, context.Background(), "k", g.run(3, nil))
	<-g.started
	u.Put("k", 2)
	close(g.release)
	<-owner
	if v, _ := u.Get("k"); v != 3 || u.Stats() != (Stats{Entries: 1, Cost: 1}) {
		t.Errorf("after a run over a put value: %d, %+v; want 3 alone", v, u.Stats())
	}
}

func TestConcurrentKeysUnderRace(t *testing.T) {
	c := New[int, int](16, nil)
	var runs atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := i % 32
				v, _, err := c.Do(context.Background(), k, func() (int, error) {
					runs.Add(1)
					return k * k, nil
				})
				if err != nil || v != k*k {
					t.Errorf("key %d: (%d, %v)", k, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 16 || st.Cost != int64(st.Entries) {
		t.Errorf("bound broken: %+v", st)
	}
	if runs.Load() < 32 {
		t.Errorf("%d runs for 32 keys", runs.Load())
	}
}
