// Package experiment regenerates every table and figure of the TASS paper
// on the synthetic universe. Each experiment returns a Result holding the
// rendered rows/series the paper reports; cmd/experiments prints them and
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The package is deliberately deterministic: a (seed, scale, months)
// triple fully determines every number in every Result.
package experiment

import (
	"fmt"
	"runtime"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/strategy"
	"github.com/tass-scan/tass/internal/topo"
)

// Config scopes an experiment run.
type Config struct {
	// Seed drives universe generation (Seed) and churn (Seed+1).
	Seed int64
	// Months is the number of churn steps; the paper observes months
	// 0..6 (7 snapshots).
	Months int
	// Scale selects the universe size: 1.0 is paper scale (≈3.7 B
	// allocated addresses, ≈7 M hosts), smaller values shrink the
	// allocated space and host counts proportionally for tests and
	// benchmarks.
	Scale float64
	// Workers bounds the goroutines used for world building and for
	// RunAll's experiment pool. Zero means GOMAXPROCS. Any worker count
	// produces byte-identical results: every parallel path is backed by
	// per-protocol RNG streams or pure read-only fan-out.
	Workers int
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig is the paper-scale setup: full address space, 7 monthly
// snapshots.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Months: 6, Scale: 1.0}
}

// SmallConfig is a fast, reduced-scale setup for tests and benches.
func SmallConfig(seed int64) Config {
	return Config{Seed: seed, Months: 6, Scale: 0.01}
}

// World bundles the generated universe and its ground-truth snapshot
// series; all experiments share one World.
type World struct {
	Cfg    Config
	U      *topo.Universe
	Series map[string]*census.Series

	// Cache memoizes per-(snapshot, partition) host counts across every
	// experiment sharing the world: the phi grid and the figures all
	// rank the same seeds over the same two universes, so each pair is
	// counted exactly once per run. A nil cache computes every request,
	// so call sites need no checks.
	Cache *census.CountCache
}

// Rank ranks the seed over part, sharing the world's count cache and
// worker budget.
func (w *World) Rank(seed *census.Snapshot, part rib.Partition) []core.PrefixStat {
	return core.RankCached(seed, part, w.Cfg.workers(), w.Cache)
}

// Select runs a TASS selection, sharing the world's count cache and
// worker budget.
func (w *World) Select(seed *census.Snapshot, part rib.Partition, opts core.Options) (*core.Selection, error) {
	return core.SelectCached(seed, part, opts, w.Cfg.workers(), w.Cache)
}

// SelectPhis selects a φ grid, sharing the world's count cache and
// worker budget.
func (w *World) SelectPhis(seed *census.Snapshot, part rib.Partition, phis []float64) ([]*core.Selection, error) {
	grid := make([]core.Options, len(phis))
	for i, phi := range phis {
		grid[i] = core.Options{Phi: phi}
	}
	return core.SelectManyCached(seed, part, grid, w.Cfg.workers(), w.Cache)
}

// TASS builds the TASS strategy wired to the world's cache and workers.
func (w *World) TASS(part rib.Partition, opts core.Options, label string) strategy.TASS {
	return strategy.TASS{Universe: part, Opts: opts, Label: label, Workers: w.Cfg.workers(), Cache: w.Cache}
}

// BuildWorld generates the universe and simulates the monthly series.
func BuildWorld(cfg Config) (*World, error) {
	if cfg.Months <= 0 {
		cfg.Months = 6
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	u, err := generateUniverse(cfg)
	if err != nil {
		return nil, err
	}
	return &World{
		Cfg:    cfg,
		U:      u,
		Series: churn.RunSim(u, cfg.Seed+1, cfg.Months, churn.RunConfig{Workers: cfg.workers()}),
		Cache:  census.NewCountCache(),
	}, nil
}

// generateUniverse generates the unevolved universe of cfg, whose
// Scale BuildWorld has defaulted.
func generateUniverse(cfg Config) (*topo.Universe, error) {
	var tcfg topo.Config
	if cfg.Scale >= 1.0 {
		tcfg = topo.DefaultConfig(cfg.Seed)
	} else {
		// Shrink the allocated space to keep densities comparable:
		// pick a slice of /8 blocks matching the scale.
		tcfg = topo.DefaultConfig(cfg.Seed)
		blocks := int(cfg.Scale * 220)
		if blocks < 1 {
			blocks = 1
		}
		var alloc []netaddr.Prefix
		for b := 0; b < blocks; b++ {
			alloc = append(alloc, netaddr.MustPrefixFrom(
				netaddr.AddrFrom4(byte(20+b), 0, 0, 0), 8))
		}
		tcfg.Allocated = alloc
		tcfg.Protocols = topo.DefaultProfiles(cfg.Scale)
		// Suppress whole-/8 announcements that would dominate a small
		// universe (see topo.SmallConfig).
		for l := 0; l <= 12; l++ {
			tcfg.AnnounceProb[l] = 0
			tcfg.HoleProb[l] = 0
		}
	}
	tcfg.Workers = cfg.workers()
	u, err := topo.Generate(tcfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: generating universe: %w", err)
	}
	return u, nil
}

// Protocols returns the protocol names in canonical order.
func (w *World) Protocols() []string { return w.U.Protocols() }

// Result is one regenerated table or figure.
type Result struct {
	// ID matches the experiment index in DESIGN.md ("table1", "figure5").
	ID string
	// Title describes the experiment.
	Title string
	// Text is the rendered rows/series.
	Text string
}

// String renders the result with its header.
func (r Result) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Text)
}
