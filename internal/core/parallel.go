package core

import (
	"fmt"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/par"
	"github.com/tass-scan/tass/internal/rib"
)

// SelectManyCached evaluates a grid of selection options against one
// seed snapshot: the snapshot is ranked once into a Ranker (with the
// counting walk sharded over the workers and memoized in cache by
// (seed, universe) identity; nil computes every call), then every
// Options entry is selected concurrently from the shared ranking.
// workers bounds the goroutines (0 means GOMAXPROCS). The i-th result
// equals SelectCached(seed, universe, grid[i], …) exactly, including
// the refusal of a faulted lazy seed; the first error by grid order
// wins.
func SelectManyCached[A netaddr.Key[A]](seed *census.SnapshotOf[A], universe rib.PartOf[A], grid []Options, workers int, cache *census.CountCacheOf[A]) ([]*SelectionOf[A], error) {
	// Fail fast on invalid options before paying for the ranking.
	for i, opts := range grid {
		if err := opts.validate(); err != nil {
			return nil, fmt.Errorf("core: grid entry %d: %w", i, err)
		}
	}
	r, err := rankSeed(seed, universe, workers, cache)
	if err != nil {
		return nil, err
	}
	ranked := r.Ranked()
	sels := make([]*SelectionOf[A], len(grid))
	errs := make([]error, len(grid))
	par.ForEach(len(grid), workers, func(i int) {
		sels[i], errs[i] = r.selectFrom(ranked, grid[i])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: grid entry %d (φ=%v): %w", i, grid[i].Phi, err)
		}
	}
	return sels, nil
}
