package trace

import (
	"fmt"

	"tcsim/internal/replace"
)

// CacheConfig sizes the trace cache. The zero value selects the paper's
// configuration via DefaultCacheConfig.
type CacheConfig struct {
	Entries int // total lines; paper: 2K
	Ways    int // associativity; paper: 4
	// Policy names the registered replacement policy ("" = the
	// registry default, true LRU).
	Policy string
}

// DefaultCacheConfig is the paper's 2K-entry, 4-way trace cache
// (~156KB: 128KB of instructions + 28KB of pre-decode bits).
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{Entries: 2 << 10, Ways: 4}
}

type tcLine struct {
	valid bool
	seg   *Segment
	lru   uint64 // path-selection recency (Lookup tie-break), not the victim choice
	hits  uint32 // demand hits this line generation (reuse decanting)
}

// Cache is the trace cache: set-associative storage of Segments indexed
// by their starting fetch address. Multiple ways may hold segments with
// the same start address but different embedded paths (path
// associativity); Lookup selects the way whose path agrees longest with
// the supplied predictions. Victim selection is delegated to a
// replacement policy from internal/replace; the recency stamps kept
// here only break path-selection ties between equally matching ways.
type Cache struct {
	sets  int
	ways  int
	mask  uint32
	lines [][]tcLine
	clock uint64
	pol   replace.Policy
	reuse ReuseStats

	Lookups     uint64
	HitLines    uint64
	MissLines   uint64
	InstsServed uint64
	Writes      uint64
	// Bypasses counts fills the policy rejected outright (oracle
	// policies only; hardware policies always allocate).
	Bypasses uint64

	// LastRetiredHits is the hit count of the line generation most
	// recently folded into the reuse histograms by Insert (eviction or
	// in-place rebuild); the pipeline reads it to emit timeline events.
	LastRetiredHits uint32
}

// NewCache builds the trace cache; zero config fields take defaults.
func NewCache(cfg CacheConfig) (*Cache, error) {
	d := DefaultCacheConfig()
	if cfg.Entries == 0 {
		cfg.Entries = d.Entries
	}
	if cfg.Ways == 0 {
		cfg.Ways = d.Ways
	}
	if cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("trace: %d entries not divisible by %d ways", cfg.Entries, cfg.Ways)
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("trace: %d sets not a power of two", sets)
	}
	pol, err := replace.New(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("trace: %v", err)
	}
	pol.Resize(sets, cfg.Ways)
	c := &Cache{sets: sets, ways: cfg.Ways, mask: uint32(sets - 1), pol: pol}
	c.lines = make([][]tcLine, sets)
	for s := range c.lines {
		c.lines[s] = make([]tcLine, cfg.Ways)
	}
	return c, nil
}

func (c *Cache) setFor(pc uint32) ([]tcLine, int) {
	s := int((pc >> 2) & c.mask)
	return c.lines[s], s
}

// Policy exposes the cache's replacement-policy instance (the pipeline
// binds oracle state through it; tests inspect it).
func (c *Cache) Policy() replace.Policy { return c.pol }

// PathMatcher scores how well a segment's embedded path agrees with the
// current predictions; Lookup uses it to pick among ways. It returns the
// number of instructions that would issue active.
type PathMatcher func(seg *Segment) int

// Lookup probes the cache at pc. When several ways hold a segment
// starting at pc, the one with the highest matcher score wins (ties go
// to the most recently used). Returns nil on miss.
func (c *Cache) Lookup(pc uint32, match PathMatcher) *Segment {
	c.Lookups++
	set, s := c.setFor(pc)
	bestW := -1
	bestScore := -1
	for w := range set {
		if !set[w].valid || set[w].seg.StartPC != pc {
			continue
		}
		score := 0
		if match != nil {
			score = match(set[w].seg)
		}
		if score > bestScore || (score == bestScore && bestW >= 0 && set[w].lru > set[bestW].lru) {
			bestScore, bestW = score, w
		}
	}
	if bestW < 0 {
		c.MissLines++
		return nil
	}
	c.clock++
	set[bestW].lru = c.clock
	set[bestW].hits++
	c.pol.Touch(s, bestW, pc)
	c.HitLines++
	c.InstsServed += uint64(len(set[bestW].seg.Insts))
	return set[bestW].seg
}

// Insert writes a finished segment, replacing an existing way with the
// same start PC and identical embedded path if present (segment rebuild),
// else the policy's victim. It returns the evicted segment (nil when the
// way was empty) so the caller can recycle its storage once no reader
// remains; a policy bypass returns seg itself — never stored, ready for
// immediate recycling.
func (c *Cache) Insert(seg *Segment) *Segment {
	set, s := c.setFor(seg.StartPC)
	victim := replace.FindVictim(c.pol, s, c.ways, seg.StartPC,
		func(w int) bool { return !set[w].valid },
		func(w int) bool {
			return set[w].seg.StartPC == seg.StartPC && samePath(set[w].seg, seg)
		})
	if victim == replace.Bypass {
		c.Bypasses++
		return seg
	}
	c.clock++
	c.Writes++
	var evicted *Segment
	if set[victim].valid {
		evicted = set[victim].seg
		c.retire(&set[victim])
	}
	set[victim] = tcLine{valid: true, seg: seg, lru: c.clock}
	c.pol.Insert(s, victim, seg.StartPC)
	return evicted
}

// retire folds a dying line generation into the reuse histograms.
func (c *Cache) retire(l *tcLine) {
	c.reuse.Add(l.seg.Mix, l.seg.LoopBack, l.hits)
	c.LastRetiredHits = l.hits
}

// ReuseSnapshot returns the decanting histograms including the
// generations still resident (counted as if retired now). Pure read.
func (c *Cache) ReuseSnapshot() ReuseStats {
	r := c.reuse
	for s := range c.lines {
		for w := range c.lines[s] {
			if l := &c.lines[s][w]; l.valid {
				r.Add(l.seg.Mix, l.seg.LoopBack, l.hits)
			}
		}
	}
	return r
}

// samePath reports whether two segments follow the identical dynamic path
// (same instruction addresses in the same order).
func samePath(a, b *Segment) bool {
	if len(a.Insts) != len(b.Insts) {
		return false
	}
	for i := range a.Insts {
		if a.Insts[i].PC != b.Insts[i].PC {
			return false
		}
	}
	return true
}

// InvalidateContaining drops every segment that contains the instruction
// at pc (used when a promoted branch is demoted: its embedded static
// prediction is stale). It appends the dropped segments to dropped and
// returns it, so the caller can recycle their storage once no reader
// remains. The search touches every line; hardware would keep an
// inclusion filter, but this event is rare enough that the paper's
// machinery doesn't model it.
func (c *Cache) InvalidateContaining(pc uint32, dropped []*Segment) []*Segment {
	for s := range c.lines {
		for w := range c.lines[s] {
			l := &c.lines[s][w]
			if !l.valid {
				continue
			}
			for i := range l.seg.Insts {
				if l.seg.Insts[i].PC == pc {
					c.retire(l)
					dropped = append(dropped, l.seg)
					l.valid, l.seg = false, nil
					break
				}
			}
		}
	}
	return dropped
}

// HitRate returns line hit rate over all lookups.
func (c *Cache) HitRate() float64 {
	if c.Lookups == 0 {
		return 0
	}
	return float64(c.HitLines) / float64(c.Lookups)
}

// Reset clears contents and statistics. It appends the segments it
// held to dropped and returns it, so the caller can recycle their
// storage.
func (c *Cache) Reset(dropped []*Segment) []*Segment {
	for s := range c.lines {
		for w := range c.lines[s] {
			if l := &c.lines[s][w]; l.valid {
				dropped = append(dropped, l.seg)
			}
			c.lines[s][w] = tcLine{}
		}
	}
	c.clock = 0
	c.pol.Reset()
	c.reuse = ReuseStats{}
	c.Lookups, c.HitLines, c.MissLines, c.InstsServed, c.Writes = 0, 0, 0, 0, 0
	c.Bypasses, c.LastRetiredHits = 0, 0
	return dropped
}

// Sets reports the set count (test hook).
func (c *Cache) Sets() int { return c.sets }

// Ways reports the associativity (test hook).
func (c *Cache) Ways() int { return c.ways }
