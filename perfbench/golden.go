package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// goldenJSON holds the expected simulated outputs: the SHA-256 of every
// figure's text and every sampled run's IPC estimate and 95% CI, keyed
// by budget. Exact-mode results are deterministic, so any change here is
// a model change, not a speed-up. Regenerate with --golden-out.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	mu      sync.Mutex
	record  bool                  // store observed values instead of checking them
	Figures map[string]string     `json:"figures"` // "<insts>/<id>" -> hex SHA-256 of the figure text
	Sampled map[string][3]float64 `json:"sampled"` // "<insts>/<workload>/<mode>" -> IPC, CI low, CI high
}

func loadGolden(record bool) (*golden, error) {
	g := &golden{record: record}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Figures == nil {
		g.Figures = map[string]string{}
	}
	if g.Sampled == nil {
		g.Sampled = map[string][3]float64{}
	}
	return g, nil
}

func (g *golden) write(path string) error {
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func (g *golden) checkFigure(insts uint64, id, text string) error {
	key := fmt.Sprintf("%d/%s", insts, id)
	sum := sha256.Sum256([]byte(text))
	got := hex.EncodeToString(sum[:])
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.record {
		g.Figures[key] = got
		return nil
	}
	want, ok := g.Figures[key]
	switch {
	case !ok:
		return fmt.Errorf("figure %s: no stored digest", key)
	case want != got:
		return fmt.Errorf("figure %s: text digest %.12s differs from the stored %.12s", key, got, want)
	}
	return nil
}

func (g *golden) checkSampled(insts uint64, workload, mode string, est [3]float64) error {
	key := fmt.Sprintf("%d/%s/%s", insts, workload, mode)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.record {
		g.Sampled[key] = est
		return nil
	}
	want, ok := g.Sampled[key]
	switch {
	case !ok:
		return fmt.Errorf("sampled %s: no stored estimate", key)
	case want != est:
		return fmt.Errorf("sampled %s: IPC %v CI [%v, %v] differs from the stored %v [%v, %v]",
			key, est[0], est[1], est[2], want[0], want[1], want[2])
	}
	return nil
}
