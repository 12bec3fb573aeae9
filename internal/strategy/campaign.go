package strategy

import (
	"fmt"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/rib"
)

// Campaign is the paper's full periodic-scanning loop (§3.1 step 5): run
// the TASS selection until t0+Δt, then reseed with a fresh full scan and
// start over. It quantifies the choice of Δt the paper leaves open
// ("an adjustable time period Δt").
type Campaign struct {
	// Universe is the prefix partition selections are drawn from.
	Universe rib.Partition
	// Opts carries φ and the optional cuts.
	Opts core.Options
	// ReseedEvery is Δt in months: a full scan is taken (and the
	// selection rebuilt) every ReseedEvery months. 0 means never reseed
	// after the initial full scan.
	ReseedEvery int
	// Workers bounds the counting-walk goroutines per reseed (0 means
	// a single worker, matching a serial core.SelectCached); results are
	// identical at any count.
	Workers int
	// Cache, when non-nil, memoizes per-(snapshot, universe) counts
	// across reseeds and across campaigns sharing the series.
	Cache *census.CountCache
	// Deltas, when set, supplies the native per-month deltas of the
	// series (Deltas[m] carries month m -> m+1, as produced by
	// churn.RunSimDeltas) and makes the campaign reseed incrementally:
	// a core.Ranker advanced by each month's delta instead of a recount
	// and re-sort every reseed — steady-state work proportional to the
	// churn. A nil entry is derived with a Snapshot.Diff merge walk.
	// Selections are byte-identical to the full recompute (golden
	// tested).
	Deltas []*census.Delta
}

// CampaignEval is the outcome of simulating a campaign against a
// ground-truth series.
type CampaignEval struct {
	// Hitrate[m] is the fraction of month-m hosts found: 1.0 in reseed
	// months (those run a full scan), the selection's hitrate otherwise.
	Hitrate []float64
	// CostShare[m] is the month's probe cost relative to a full scan.
	CostShare []float64
	// MeanHitrate and MeanCostShare average over all months.
	MeanHitrate, MeanCostShare float64
	// Reseeds counts full scans taken (including month 0).
	Reseeds int
}

// EvaluateCampaign simulates the campaign over the series. Month 0 is
// always a full scan (the initial seed).
func EvaluateCampaign(c Campaign, series *census.Series, fullSpace uint64) (CampaignEval, error) {
	if series.Months() == 0 {
		return CampaignEval{}, fmt.Errorf("strategy: empty series")
	}
	if fullSpace == 0 {
		return CampaignEval{}, fmt.Errorf("strategy: campaign needs the full-scan cost")
	}
	workers := c.Workers
	if workers <= 0 {
		workers = 1
	}
	var (
		ev  CampaignEval
		sel *core.Selection
	)
	// A never-reseeding campaign selects only at month 0 and would pay
	// the monthly repairs for nothing: it recounts.
	rs := core.NewReseeder(c.Universe, c.Opts, workers, c.Cache, c.Deltas != nil && c.ReseedEvery > 0)
	for m := 0; m < series.Months(); m++ {
		var d *census.Delta
		if m > 0 && m-1 < len(c.Deltas) {
			d = c.Deltas[m-1]
		}
		if err := rs.Advance(series.At(m), d); err != nil {
			return CampaignEval{}, fmt.Errorf("strategy: advancing to month %d: %w", m, err)
		}
		reseed := m == 0 || (c.ReseedEvery > 0 && m%c.ReseedEvery == 0)
		if reseed {
			var err error
			if sel, err = rs.Select(); err != nil {
				return CampaignEval{}, fmt.Errorf("strategy: reseed at month %d: %w", m, err)
			}
			ev.Reseeds++
			// The reseed month itself runs the full scan that seeds the
			// selection: perfect coverage, full cost.
			ev.Hitrate = append(ev.Hitrate, 1.0)
			ev.CostShare = append(ev.CostShare, 1.0)
			continue
		}
		ev.Hitrate = append(ev.Hitrate, sel.Hitrate(series.At(m)))
		ev.CostShare = append(ev.CostShare, float64(sel.Space)/float64(fullSpace))
	}
	for m := range ev.Hitrate {
		ev.MeanHitrate += ev.Hitrate[m]
		ev.MeanCostShare += ev.CostShare[m]
	}
	n := float64(len(ev.Hitrate))
	ev.MeanHitrate /= n
	ev.MeanCostShare /= n
	return ev, nil
}
