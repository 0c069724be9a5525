// Package memo is the module's one keyed singleflight cache. A value is
// built once, by the first caller to ask for its key, and served to every
// later caller; callers that ask while it is being built wait for that
// build instead of repeating it. It is the fill unit's rule — build a
// trace once, off the critical path, and serve it many times — applied to
// tcserved's result cache, the figures' run memo and the trace store. Its
// bound, least recently used out first, also caps how many finished job
// records a tcserved node keeps pollable.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Outcome reports how Do answered.
type Outcome int

const (
	// Ran: this call ran the function. Its value is now cached, or its
	// failure forgotten.
	Ran Outcome = iota
	// Hit: the value was cached.
	Hit
	// Joined: another call for the key was running; this call waited for
	// it and shares its value or its failure.
	Joined
)

// Stats is a snapshot of a cache's contents.
type Stats struct {
	Entries   int    // values held
	Cost      int64  // their summed cost
	Evictions uint64 // values evicted by the bound so far
}

// Cache maps keys to values that are built once. Its rules:
//   - A success is kept. While the summed cost exceeds the bound, the
//     least recently used values are evicted, never the one just added,
//     so a value larger than the bound stays as the only one.
//   - A failure reaches its caller and the callers already waiting, and
//     is then forgotten: the next call for the key runs again.
//   - A waiter whose own context ends returns ctx.Err() as it is.
//   - A waiter whose owner was interrupted by the owner's context (the
//     run failed with context.Canceled or context.DeadlineExceeded, which
//     says nothing about the key) retries, as the new owner if no one
//     else has taken over.
//   - A run that panics fails like a run that returns an error, so its
//     key is not left waiting; the panic goes on up the owner's stack.
//   - A value given to Put is kept as a success is, in place of any
//     value cached under its key.
//
// Create one with New. It is safe for concurrent use.
type Cache[K comparable, V any] struct {
	maxCost int64
	cost    func(V) int64

	mu        sync.Mutex
	entries   map[K]*list.Element // each holds an *entry[K, V]
	lru       list.List           // front: most recently used
	total     int64
	evictions uint64
	flights   map[K]*flight[V]
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one run in progress. Its owner sets val and err, then closes
// done; waiters read them after done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errPanicked is what a run that panicked leaves its waiters.
var errPanicked = errors.New("memo: run panicked")

// New returns a cache whose values' summed cost is bounded by maxCost
// (<= 0: unbounded). cost prices a value once, when it is added; nil
// prices every value at 1, so that maxCost counts entries.
func New[K comparable, V any](maxCost int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		maxCost: maxCost,
		cost:    cost,
		entries: make(map[K]*list.Element),
		flights: make(map[K]*flight[V]),
	}
}

// Get returns key's cached value, if there is one, and marks it recently
// used. It never waits for a run.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(key)
}

func (c *Cache[K, V]) get(key K) (v V, ok bool) {
	el, ok := c.entries[key]
	if !ok {
		return v, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Do returns key's value and how it was found: in the cache (Hit), by
// waiting for a concurrent call's run (Joined), or by calling run (Ran).
// ctx bounds only the waiting; run carries its own context, if any.
func (c *Cache[K, V]) Do(ctx context.Context, key K, run func() (V, error)) (V, Outcome, error) {
	for {
		c.mu.Lock()
		if v, ok := c.get(key); ok {
			c.mu.Unlock()
			return v, Hit, nil
		}
		f, ok := c.flights[key]
		if !ok {
			f = &flight[V]{done: make(chan struct{})}
			c.flights[key] = f
			c.mu.Unlock()
			return c.own(key, f, run)
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero V
			return zero, Joined, ctx.Err()
		}
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			continue
		}
		return f.val, Joined, f.err
	}
}

// own runs key's flight f and settles it, even if run panics: a success
// is cached, a failure forgotten, and the waiters released.
func (c *Cache[K, V]) own(key K, f *flight[V], run func() (V, error)) (V, Outcome, error) {
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.add(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.err = errPanicked // replaced when run returns
	f.val, f.err = run()
	return f.val, Ran, f.err
}

// Put caches v under key, as a successful run would: it replaces any
// value cached there, and evicts by the same rules, never v.
func (c *Cache[K, V]) Put(key K, v V) {
	c.mu.Lock()
	c.add(key, v)
	c.mu.Unlock()
}

// add caches v under key, replacing any value there, then evicts from
// the least recently used end while the bound is exceeded, never the
// value just added. c.mu is held.
func (c *Cache[K, V]) add(key K, v V) {
	if el, ok := c.entries[key]; ok {
		c.total -= c.lru.Remove(el).(*entry[K, V]).cost
	}
	e := &entry[K, V]{key: key, val: v, cost: 1}
	if c.cost != nil {
		e.cost = c.cost(v)
	}
	c.entries[key] = c.lru.PushFront(e)
	c.total += e.cost
	for c.maxCost > 0 && c.total > c.maxCost && c.lru.Len() > 1 {
		old := c.lru.Remove(c.lru.Back()).(*entry[K, V])
		delete(c.entries, old.key)
		c.total -= old.cost
		c.evictions++
	}
}

// Clear drops every cached value. Runs in progress still cache theirs,
// and the eviction count keeps accumulating.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	clear(c.entries)
	c.lru.Init()
	c.total = 0
	c.mu.Unlock()
}

// Stats snapshots the cache's size.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: len(c.entries), Cost: c.total, Evictions: c.evictions}
}
