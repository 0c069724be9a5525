package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"tcsim/internal/obs"
	"tcsim/internal/trace"
)

// OptPass is one fill-unit optimization pass. A pass rewrites (or
// annotates) a finished trace segment in place and accounts for its work
// in the PassStats cell the pipeline hands it. Pass objects are
// constructed once per fill unit run (at New or Reset) and reused for
// every segment, so Run must not retain references to seg and must not
// allocate in steady state — the fill path is allocation-free and
// passes are on it.
type OptPass interface {
	// Name returns the registry name the pass was registered under.
	Name() string
	// Run applies the pass to one finished segment. The segment has
	// complete dependency marking (markDependencies has run, and every
	// earlier pass in the pipeline has already been applied).
	Run(seg *trace.Segment, ps *PassStats)
}

// PassStats counts one pass's activity across every segment it has
// processed. Plain struct fields, updated in place: the pipeline owns
// one cell per pass, allocated at construction.
type PassStats struct {
	Name string `json:"name"`

	// Segments is how many finished segments the pass processed.
	Segments uint64 `json:"segments"`
	// Touched is the subset of Segments in which the pass changed
	// anything.
	Touched uint64 `json:"touched"`
	// Rewritten counts instructions the pass rewrote or annotated
	// (moves/dead writes marked, immediates recombined, operands scaled,
	// instructions steered to a non-identity issue slot).
	Rewritten uint64 `json:"rewritten"`
	// EdgesRemoved counts dependency-chain edges the pass eliminated or
	// bypassed (a reassociated or scaled consumer no longer waits on its
	// producer; a move consumer re-pointed past the move).
	EdgesRemoved uint64 `json:"edges_removed"`
	// Nanos is the cumulative wall time spent inside the pass. Only
	// collected when Config.TimePasses is set: the two clock reads per
	// pass per segment are measurable on the fill path.
	Nanos int64 `json:"nanos,omitempty"`
}

// PassInfo describes a registered pass: identity, documentation, where
// it sits in the canonical (paper) order, and the legality constraints
// the Pipeline enforces at construction.
type PassInfo struct {
	// Name is the registry key, used in Config.Passes specs and CLI
	// -passes flags.
	Name string
	// Desc is a one-line description for -list-passes.
	Desc string
	// Order positions the pass in the canonical pipeline order (lower
	// runs earlier). The paper's passes use 10..90; custom passes should
	// pick a value that slots them where they are legal.
	Order int
	// Default marks the pass as part of the paper's combined
	// configuration (AllOptimizations / the "all" spec). The dead-write
	// extension is registered but not Default.
	Default bool

	// Before lists passes this one must precede when both appear in a
	// spec (e.g. reassociation must precede move marking: a marked move
	// is no longer a pairable ADDI and its consumers have been rewired).
	Before []string
	// Last requires the pass to be the final one in any spec containing
	// it (instruction placement: later rewrites would invalidate the
	// slot assignment's dependence analysis).
	Last bool

	// Enabled reports whether the legacy Optimizations struct selects
	// this pass; Enable sets the corresponding field. Both may be nil
	// for custom passes that exist only in explicit specs.
	Enabled func(Optimizations) bool
	Enable  func(*Optimizations)

	// New constructs the pass object for one fill unit. Called once per
	// fill unit, at core.New.
	New func(f *FillUnit) OptPass
}

// registry holds every registered pass, keyed by name; ordered holds
// the same passes in canonical order (Order, then Name), kept sorted as
// passes register so that listing them never sorts.
var (
	registry = map[string]PassInfo{}
	ordered  []PassInfo
)

// RegisterPass adds a pass to the registry. The five built-in passes
// register themselves from their defining files' init functions; custom
// passes (see examples/custompass) register before building a fill unit
// whose spec names them. Registration is not synchronized: register
// from init or main, before simulations start. Panics on a duplicate or
// malformed registration — both are programmer errors.
func RegisterPass(info PassInfo) {
	if info.Name == "" || info.New == nil {
		panic("core: RegisterPass needs a Name and a New constructor")
	}
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("core: pass %q registered twice", info.Name))
	}
	registry[info.Name] = info
	i, _ := slices.BinarySearchFunc(ordered, info, func(a, b PassInfo) int {
		if c := cmp.Compare(a.Order, b.Order); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	ordered = slices.Insert(ordered, i, info)
}

// LookupPass returns the registration for name.
func LookupPass(name string) (PassInfo, bool) {
	pi, ok := registry[name]
	return pi, ok
}

// RegisteredPasses lists every registered pass in canonical order
// (Order, then Name for stability). The slice is the caller's copy.
func RegisteredPasses() []PassInfo { return slices.Clone(ordered) }

// PassNames lists every registered pass name in canonical order.
func PassNames() []string {
	out := make([]string, len(ordered))
	for i, pi := range ordered {
		out[i] = pi.Name
	}
	return out
}

// DefaultPassSpec returns the paper's combined pipeline: every Default
// pass in canonical order. Equal to AllOptimizations().PassSpec().
func DefaultPassSpec() []string {
	out := make([]string, 0, len(ordered))
	for _, pi := range ordered {
		if pi.Default {
			out = append(out, pi.Name)
		}
	}
	return out
}

// AllPassSpec returns every registered pass in canonical order — the
// widest legal pipeline (the "all+dwe" ablation, plus any custom passes
// registered by the embedding program).
func AllPassSpec() []string { return PassNames() }

// ValidateSpec checks a pass spec without building a pipeline: every
// name registered, no duplicates, and the registered ordering
// constraints hold. Illegal orders are rejected, never silently
// reordered — a spec is a statement of exactly what runs and when.
func ValidateSpec(spec []string) error {
	pos := make(map[string]int, len(spec))
	for i, name := range spec {
		if _, ok := registry[name]; !ok {
			return fmt.Errorf("core: unknown pass %q (registered: %v)", name, PassNames())
		}
		if j, dup := pos[name]; dup {
			return fmt.Errorf("core: pass %q appears twice in spec (positions %d and %d)", name, j, i)
		}
		pos[name] = i
	}
	for name, i := range pos {
		pi := registry[name]
		for _, after := range pi.Before {
			if j, present := pos[after]; present && j < i {
				return fmt.Errorf("core: illegal pass order: %q must run before %q", name, after)
			}
		}
		if pi.Last && i != len(spec)-1 {
			return fmt.Errorf("core: illegal pass order: %q must be the last pass", name)
		}
	}
	return nil
}

// Pipeline runs an ordered sequence of optimization passes over each
// finished segment and owns their per-pass statistics. It is built once
// per fill unit: pass objects and stats cells are allocated at
// construction, keeping Run allocation-free.
type Pipeline struct {
	passes []OptPass
	stats  []PassStats
	timed  bool // collect per-pass wall time
	check  bool // validate segment invariants after every pass

	// rec receives one KPass event per pass that changed a segment;
	// nameIDs holds each pass name's interned index (filled at
	// construction, so the emission path never touches strings).
	rec     *obs.Recorder
	nameIDs []uint64
}

// NewPipeline builds a pipeline for f from a pass spec. The spec is
// validated (unknown passes, duplicates, ordering constraints) and an
// illegal spec is an error, not a silent reorder.
func NewPipeline(f *FillUnit, spec []string) (*Pipeline, error) {
	if err := ValidateSpec(spec); err != nil {
		return nil, err
	}
	p := &Pipeline{
		passes: make([]OptPass, 0, len(spec)),
		stats:  make([]PassStats, len(spec)),
		timed:  f.cfg.TimePasses,
		check:  f.cfg.CheckPasses,
		rec:    f.cfg.Recorder,
	}
	for i, name := range spec {
		pass := registry[name].New(f)
		if pass.Name() != name {
			return nil, fmt.Errorf("core: pass registered as %q names itself %q", name, pass.Name())
		}
		p.passes = append(p.passes, pass)
		p.stats[i].Name = name
		if p.rec != nil {
			p.nameIDs = append(p.nameIDs, p.rec.Intern(name))
		}
	}
	return p, nil
}

// Len reports how many passes the pipeline runs.
func (p *Pipeline) Len() int { return len(p.passes) }

// Spec returns the pipeline's pass names in run order.
func (p *Pipeline) Spec() []string {
	out := make([]string, len(p.passes))
	for i, pass := range p.passes {
		out[i] = pass.Name()
	}
	return out
}

// Run applies every pass to seg in order, updating the per-pass
// counters. cycle is the finalization cycle, used only to stamp
// timeline events when a recorder is attached. With CheckPasses set it
// validates the segment's structural invariants between passes and
// panics, naming the offending pass, on a violation (test/debug
// configuration).
func (p *Pipeline) Run(seg *trace.Segment, cycle uint64) {
	for i := range p.passes {
		ps := &p.stats[i]
		ps.Segments++
		before := ps.Rewritten
		edgesBefore := ps.EdgesRemoved
		if p.timed {
			t0 := time.Now()
			p.passes[i].Run(seg, ps)
			ps.Nanos += time.Since(t0).Nanoseconds()
		} else {
			p.passes[i].Run(seg, ps)
		}
		if ps.Rewritten != before {
			ps.Touched++
		}
		if p.rec != nil && (ps.Rewritten != before || ps.EdgesRemoved != edgesBefore) {
			p.rec.Emit(cycle, obs.KPass, p.nameIDs[i],
				ps.Rewritten-before, ps.EdgesRemoved-edgesBefore)
		}
		if p.check {
			if err := seg.Validate(); err != nil {
				panic(fmt.Sprintf("core: segment invariant violated after pass %q: %v (%v)",
					p.passes[i].Name(), err, seg))
			}
		}
	}
}

// Stats returns a copy of the per-pass counters, in run order.
func (p *Pipeline) Stats() []PassStats {
	out := make([]PassStats, len(p.stats))
	copy(out, p.stats)
	return out
}

// PassSpec expands the boolean optimization selection into the paper's
// canonical pass order: every registered Default-eligible pass whose
// field is set, in registry order. The result is what an empty
// Config.Passes spec runs; it is never nil, and the caller owns it.
func (o Optimizations) PassSpec() []string {
	out := make([]string, 0, len(ordered))
	for _, pi := range ordered {
		if pi.Enabled != nil && pi.Enabled(o) {
			out = append(out, pi.Name)
		}
	}
	return out
}

// OptimizationsForSpec is PassSpec's inverse: the boolean selection
// corresponding to a spec's pass set (order is not representable).
// Custom passes without an Enable hook contribute nothing.
func OptimizationsForSpec(spec []string) Optimizations {
	var o Optimizations
	for _, name := range spec {
		if pi, ok := registry[name]; ok && pi.Enable != nil {
			pi.Enable(&o)
		}
	}
	return o
}
