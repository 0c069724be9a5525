// Package bpred implements the front-end predictors the paper's fetch
// engine uses: a multiple-branch predictor made of three skewed
// pattern-history tables of 2-bit saturating counters (64K/16K/8K
// entries, one table per conditional-branch position within a trace
// segment), the 8KB bias table that drives branch promotion (threshold:
// 64 consecutive identical outcomes), a return address stack, and a
// last-target buffer for non-return indirect jumps.
package bpred

// Counter is a 2-bit saturating counter. Values 0-1 predict not-taken,
// 2-3 predict taken.
type Counter uint8

// Predict returns the counter's current direction prediction.
func (c Counter) Predict() bool { return c >= 2 }

// Update moves the counter toward the observed outcome.
func (c Counter) Update(taken bool) Counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// PHT is a pattern history table of 2-bit counters, initialized to
// weakly-taken (2), the customary bias for backward-branch-dominated
// integer code.
type PHT struct {
	counters []Counter
	mask     uint32
}

// NewPHT builds a table with the given power-of-two entry count.
func NewPHT(entries int) *PHT {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: PHT entries must be a positive power of two")
	}
	t := &PHT{counters: make([]Counter, entries), mask: uint32(entries - 1)}
	t.Reset()
	return t
}

// Reset returns every counter to weakly-taken in place.
func (t *PHT) Reset() {
	for i := range t.counters {
		t.counters[i] = 2
	}
}

// Predict returns the direction for the given index.
func (t *PHT) Predict(idx uint32) bool { return t.counters[idx&t.mask].Predict() }

// Update trains the entry at idx with the resolved outcome.
func (t *PHT) Update(idx uint32, taken bool) {
	t.counters[idx&t.mask] = t.counters[idx&t.mask].Update(taken)
}

// Entries reports the table size (test hook).
func (t *PHT) Entries() int { return len(t.counters) }

// Config sizes the multiple-branch predictor. The zero value is replaced
// by the paper's configuration.
type Config struct {
	PHTEntries  [3]int // per-slot table sizes; paper: 64K, 16K, 8K
	HistoryBits int    // global history length folded into the index
	BiasEntries int    // bias table entries; paper: 8KB => 8K entries
	BiasThresh  int    // consecutive outcomes to promote; paper: 64
	RASEntries  int    // return address stack depth
	ITBEntries  int    // indirect-target buffer entries
}

// DefaultConfig returns the paper's predictor configuration.
func DefaultConfig() Config {
	return Config{
		PHTEntries:  [3]int{64 << 10, 16 << 10, 8 << 10},
		HistoryBits: 13,
		BiasEntries: 8 << 10,
		BiasThresh:  64,
		RASEntries:  32,
		ITBEntries:  512,
	}
}

// Token identifies a prediction so the training update can reach the
// same entry after global history has moved on.
type Token struct {
	Slot int
	Idx  uint32
}

// Predictor is the complete front-end prediction state.
type Predictor struct {
	cfg  Config
	phts [3]*PHT
	hist uint32

	Bias *BiasTable
	RAS  *RAS
	ITB  *IndirectTargets

	Lookups     uint64
	Mispredicts uint64
}

// New builds a predictor; zero-valued config fields take defaults.
func New(cfg Config) *Predictor {
	d := DefaultConfig()
	if cfg.PHTEntries[0] == 0 {
		cfg.PHTEntries = d.PHTEntries
	}
	if cfg.HistoryBits == 0 {
		cfg.HistoryBits = d.HistoryBits
	}
	if cfg.BiasEntries == 0 {
		cfg.BiasEntries = d.BiasEntries
	}
	if cfg.BiasThresh == 0 {
		cfg.BiasThresh = d.BiasThresh
	}
	if cfg.RASEntries == 0 {
		cfg.RASEntries = d.RASEntries
	}
	if cfg.ITBEntries == 0 {
		cfg.ITBEntries = d.ITBEntries
	}
	p := &Predictor{
		cfg:  cfg,
		Bias: NewBiasTable(cfg.BiasEntries, cfg.BiasThresh),
		RAS:  NewRAS(cfg.RASEntries),
		ITB:  NewIndirectTargets(cfg.ITBEntries),
	}
	for i := 0; i < 3; i++ {
		p.phts[i] = NewPHT(cfg.PHTEntries[i])
	}
	return p
}

// index folds the branch address and the global history gshare-style.
func (p *Predictor) index(pc uint32) uint32 {
	return (pc >> 2) ^ p.hist
}

// PredictCond predicts the conditional branch at pc occupying the given
// branch slot (0, 1 or 2) of the current fetch group, speculatively
// shifts the predicted outcome into the global history, and returns the
// training token.
func (p *Predictor) PredictCond(slot int, pc uint32) (bool, Token) {
	taken, tok := p.Peek(slot, pc)
	p.Lookups++
	p.pushHistory(taken)
	return taken, tok
}

// Peek returns the prediction and training token for the branch at pc in
// the given slot without perturbing any predictor state. The fetch
// engine uses Peek both to score trace-cache ways (path matching) and to
// walk the chosen way, committing history updates afterwards with
// PushOutcome.
func (p *Predictor) Peek(slot int, pc uint32) (bool, Token) {
	if slot < 0 || slot > 2 {
		slot = 2 // clamp: extra branches beyond the 3rd share the last table
	}
	idx := p.index(pc)
	return p.phts[slot].Predict(idx), Token{Slot: slot, Idx: idx}
}

// PushOutcome shifts one (speculative) branch outcome into the global
// history.
func (p *Predictor) PushOutcome(taken bool) { p.pushHistory(taken) }

// Update trains the predictor with the resolved outcome of a previously
// predicted branch.
func (p *Predictor) Update(tok Token, taken bool) {
	p.phts[tok.Slot].Update(tok.Idx, taken)
}

func (p *Predictor) pushHistory(taken bool) {
	p.hist <<= 1
	if taken {
		p.hist |= 1
	}
	p.hist &= (1 << p.cfg.HistoryBits) - 1
}

// History returns the speculative global history (for checkpointing).
func (p *Predictor) History() uint32 { return p.hist }

// SetHistory restores the global history (misprediction repair).
func (p *Predictor) SetHistory(h uint32) { p.hist = h }

// Reset clears all dynamic state.
func (p *Predictor) Reset() {
	for _, t := range p.phts {
		t.Reset()
	}
	p.hist = 0
	p.Bias.Reset()
	p.RAS.Reset()
	p.ITB.Reset()
	p.Lookups, p.Mispredicts = 0, 0
}
