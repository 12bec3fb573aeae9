package scan

import (
	"context"
	"fmt"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// Campaign runs the paper's full loop (§3.1) live, with real probes
// instead of an oracle census: scan the current plan, convert the
// responsive addresses into a census snapshot, re-rank and re-select
// over the universe (steps 1–4), and scan the tightened plan on the
// next cycle. Cycle 0 scans Targets (by default the whole universe —
// the seed scan); every later cycle scans the previous cycle's
// selection. This is what distinguishes a TASS deployment from a TASS
// simulation: the seed is whatever a rate-limited, lossy scan actually
// observed, not ground truth.
type Campaign struct {
	// Universe is the prefix partition selections are drawn from
	// (required).
	Universe rib.Partition
	// Targets, when non-empty, is the cycle-0 scan plan; it defaults to
	// Universe (a full seed scan).
	Targets rib.Partition
	// SeedSnapshot, when set (and Targets is empty), replaces the
	// cycle-0 full-universe seed scan: the first cycle scans the TASS
	// selection computed from this snapshot over Universe, exactly as
	// the paper seeds from a census archive instead of scanning 2^32
	// first. Lazy snapshots (census.OpenSnapshotFile) work unchanged —
	// the selection counts off the block index, so a multi-gigabyte
	// census seeds a campaign without ever being resident in full.
	SeedSnapshot *census.Snapshot
	// DegradedReads opts the seed selection into surviving storage
	// corruption in a lazy SeedSnapshot: damaged blocks are skipped
	// (their hosts drop out of the counts), each fault is reported
	// through OnStorageFault, and the campaign runs on. The default
	// (false) fails the seed selection with a typed
	// *addrset.BlockError instead — a coordinator would rather alert
	// than plan from a silently short census.
	DegradedReads bool
	// OnStorageFault, when set, receives every damaged-block fault the
	// seed selection recorded (only possible with a lazy SeedSnapshot;
	// only survivable with DegradedReads).
	OnStorageFault func(addrset.BlockError)
	// Prober performs the probes (required unless ProberAt is set).
	Prober Prober
	// ProberAt, when set, supplies the prober per cycle — the hook for
	// evaluating against a churning ground truth, one simulated month
	// per cycle.
	ProberAt func(cycle int) Prober
	// Opts carries φ and the optional density/size cuts for the
	// re-selection after every cycle.
	Opts core.Options
	// Rate, Burst, Workers, Seed and Exclude parameterize each cycle's
	// scanner exactly as in Config. The permutation seed advances by one
	// per cycle so consecutive cycles use different probe orders. A
	// campaign is deliberately single-instance (no Shard/Shards): each
	// re-selection needs the complete responsive set, so a sharded
	// deployment would have to merge the instances' scan results before
	// re-selecting — per-instance re-selection from a shard's partial
	// seed would silently diverge the plans.
	Rate    float64
	Burst   int
	Workers int
	Seed    int64
	Exclude []netaddr.Prefix
	// Politeness parameterizes each cycle's good-citizen layer (per-AS
	// pacing, backoff, budgets, footprint). Its Origins field is ignored:
	// the plan changes every cycle, so set OriginsOf instead, which is
	// called with each cycle's plan.
	Politeness Politeness
	// OriginsOf maps a cycle plan to per-prefix origin ASes (typically
	// rib.Table.OriginsOf on the announced table behind Universe).
	// Required when Politeness enables any per-AS feature.
	OriginsOf func(plan rib.Partition) []uint32
	// Cache, when non-nil, memoizes the per-(snapshot, partition) counts
	// behind each re-selection.
	Cache *census.CountCache
	// Incremental re-selects by applying each cycle's scan-result delta
	// (previous cycle's snapshot diffed against this cycle's) to a
	// maintained ranking instead of re-counting the whole snapshot over
	// the universe every cycle. Selections — and therefore every later
	// cycle's plan — are byte-identical to the full recompute (golden
	// tested); the steady-state reseed cost becomes proportional to the
	// cycle-over-cycle churn.
	Incremental bool
	// Protocol names the snapshots built from scan results (default
	// "scan").
	Protocol string
	// OnResult, when set, receives every probe result of every cycle.
	OnResult func(Result)
}

// Cycle is one completed scan-and-reselect iteration of a campaign.
type Cycle struct {
	// Index is the cycle number, starting at 0 (the seed scan).
	Index int
	// Plan is the partition this cycle scanned.
	Plan rib.Partition
	// Report is the cycle's scan outcome.
	Report *Report
	// Snapshot is Report.Responsive as a census snapshot (month = Index),
	// the seed of the next cycle's selection.
	Snapshot *census.Snapshot
	// Selection is the TASS selection computed from Snapshot over the
	// campaign universe; the next cycle scans Selection.Partition().
	Selection *core.Selection
}

// Run executes the given number of scan cycles, feeding each cycle's
// results into the next cycle's selection. It returns the completed
// cycles; on error (including context cancellation) the cycles finished
// so far are returned alongside it.
func (c *Campaign) Run(ctx context.Context, cycles int) ([]Cycle, error) {
	if cycles <= 0 {
		return nil, fmt.Errorf("scan: campaign needs at least one cycle")
	}
	if c.Universe.Len() == 0 {
		return nil, fmt.Errorf("scan: campaign needs a universe")
	}
	if c.Prober == nil && c.ProberAt == nil {
		return nil, fmt.Errorf("scan: campaign needs a prober")
	}
	protocol := c.Protocol
	if protocol == "" {
		protocol = "scan"
	}
	// Selection workers: SelectCached reads 0 as GOMAXPROCS, matching
	// the scanner's own parallel default.
	workers := c.Workers
	if workers < 0 {
		workers = 0
	}
	plan := c.Targets
	if plan.Len() == 0 {
		plan = c.Universe
	}
	var out []Cycle
	// selectFrom computes the selection seeding the next plan through
	// the one reseed policy: with Incremental, the first call counts the
	// snapshot into a ranking and later calls repair it with the
	// snapshot-over-snapshot delta. Selections are byte-identical across
	// the paths and across snapshot backings (eager or lazy).
	reseeder := core.NewReseeder(c.Universe, c.Opts, workers, c.Cache, c.Incremental)
	selectFrom := func(snap *census.Snapshot) (*core.Selection, error) {
		if err := reseeder.Advance(snap, nil); err != nil {
			return nil, err
		}
		return reseeder.Select()
	}
	if c.SeedSnapshot != nil && c.Targets.Len() == 0 {
		if c.DegradedReads {
			c.SeedSnapshot.SetFaultPolicy(addrset.Degrade)
		}
		sel, err := selectFrom(c.SeedSnapshot)
		if faults := c.SeedSnapshot.StorageFaults(); len(faults) > 0 && c.OnStorageFault != nil {
			for _, f := range faults {
				c.OnStorageFault(f)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("scan: campaign seed selection: %w", err)
		}
		plan = sel.Partition()
	}
	for i := 0; i < cycles; i++ {
		prober := c.Prober
		if c.ProberAt != nil {
			prober = c.ProberAt(i)
		}
		pol := c.Politeness
		pol.Origins = nil
		if pol.perAS() {
			if c.OriginsOf == nil {
				return out, fmt.Errorf("scan: campaign cycle %d: politeness needs OriginsOf to map each cycle's plan", i)
			}
			pol.Origins = c.OriginsOf(plan)
		}
		s, err := New(Config{
			Targets:    plan,
			Prober:     prober,
			Rate:       c.Rate,
			Burst:      c.Burst,
			Workers:    c.Workers,
			Seed:       c.Seed + int64(i),
			Exclude:    c.Exclude,
			Politeness: pol,
			OnResult:   c.OnResult,
		})
		if err != nil {
			return out, fmt.Errorf("scan: campaign cycle %d: %w", i, err)
		}
		report, err := s.Run(ctx)
		if err != nil {
			return out, fmt.Errorf("scan: campaign cycle %d: %w", i, err)
		}
		snap := census.NewSnapshot(protocol, i, report.Responsive)
		sel, err := selectFrom(snap)
		if err != nil {
			return out, fmt.Errorf("scan: campaign cycle %d selection: %w", i, err)
		}
		out = append(out, Cycle{
			Index:     i,
			Plan:      plan,
			Report:    report,
			Snapshot:  snap,
			Selection: sel,
		})
		plan = sel.Partition()
	}
	return out, nil
}

// Hitrate returns the cycle's scan hitrate against a ground-truth
// responsive set: the fraction of truth's hosts the cycle found. It is
// the evaluation metric of the scan-in-the-loop experiment; live
// campaigns have no truth to compare against.
func (cy *Cycle) Hitrate(truth *census.Snapshot) float64 {
	if truth.Hosts() == 0 {
		return 0
	}
	return float64(cy.Snapshot.IntersectWith(truth)) / float64(truth.Hosts())
}

// CostShare returns the cycle's probe cost relative to scanning the
// whole universe once.
func (cy *Cycle) CostShare(universe rib.Partition) float64 {
	if universe.AddressCount() == 0 {
		return 0
	}
	return float64(cy.Plan.AddressCount()) / float64(universe.AddressCount())
}
