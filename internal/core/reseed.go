package core

import (
	"fmt"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/rib"
)

// Reseeder is the reseed policy of the §3.1 loop: the one place that
// decides how the selection for each new seed snapshot is computed.
// Campaigns advance it once per month or scan cycle and draw a
// selection whenever they reseed.
//
// An incremental Reseeder counts its first snapshot once into a Ranker
// and repairs that ranking from each later delta; otherwise every
// Select recounts its snapshot with SelectCached. Every selection is
// byte-identical to SelectCached on the latest snapshot, whichever path
// computed it.
//
// A Reseeder is single-goroutine state.
type Reseeder struct {
	universe    rib.Partition
	opts        Options
	workers     int
	cache       *census.CountCache
	incremental bool

	ranker *Ranker          // nil until the first incremental Advance
	snap   *census.Snapshot // the latest snapshot
}

// NewReseeder builds the reseed policy for selections of opts over
// universe, counting through cache and over workers goroutines as in
// SelectCached. incremental chooses delta repair over per-reseed
// recounts.
func NewReseeder(universe rib.Partition, opts Options, workers int, cache *census.CountCache, incremental bool) *Reseeder {
	return &Reseeder{
		universe:    universe,
		opts:        opts,
		workers:     workers,
		cache:       cache,
		incremental: incremental,
	}
}

// Advance moves the reseeder to snap. delta, when non-nil, is the churn
// from the previous snapshot to snap (a native churn or census delta);
// when nil, an incremental reseeder derives it with a Snapshot.Diff
// merge walk, and a recounting one needs none. A derived delta over a
// lazy snapshot with an unreadable block fails with the
// *addrset.BlockError under either fault policy. On error the reseeder
// is unchanged.
func (r *Reseeder) Advance(snap *census.Snapshot, delta *census.Delta) error {
	if r.incremental {
		if r.ranker == nil {
			rk, err := NewRanker(snap, r.universe, r.workers, r.cache)
			if err != nil {
				return err
			}
			r.ranker = rk
		} else {
			if delta == nil {
				delta = r.snap.Diff(snap)
				// Diff skips a block it cannot read, which would turn
				// that block's addresses into spurious churn: refuse it
				// under either fault policy, as census.ApplyDelta does.
				for _, s := range [2]*census.Snapshot{r.snap, snap} {
					if faults := s.StorageFaults(); len(faults) > 0 {
						return fmt.Errorf("core: %w", &faults[0])
					}
				}
			}
			if err := r.ranker.Apply(delta); err != nil {
				return err
			}
		}
	}
	r.snap = snap
	return nil
}

// Select draws the selection for the latest snapshot.
func (r *Reseeder) Select() (*Selection, error) {
	if r.ranker != nil {
		return r.ranker.Select(r.opts)
	}
	if r.snap == nil {
		return nil, fmt.Errorf("core: reseeder has no snapshot to select from")
	}
	return SelectCached(r.snap, r.universe, r.opts, r.workers, r.cache)
}
