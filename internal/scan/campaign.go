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
	// campaign universe; the next cycle scans Selection.Partition(). It
	// is nil when the cycle found no host.
	Selection *core.Selection
	// Note says why the campaign finished early after this cycle.
	Note string
}

// Run executes up to the given number of scan cycles on the campaign's
// CycleMachine. It returns the completed cycles (fewer when the machine
// finishes early; the last then carries its Note). On error, including
// context cancellation, the cycles finished so far are returned with it,
// the failing cycle too when only its reseed failed.
func (c *Campaign) Run(ctx context.Context, cycles int) ([]Cycle, error) {
	if c.Prober == nil && c.ProberAt == nil {
		return nil, fmt.Errorf("scan: campaign needs a prober")
	}
	m, err := c.Machine(cycles)
	if err != nil {
		return nil, err
	}
	var out []Cycle
	for !m.Done() {
		i, plan := m.Cycle(), m.Plan()
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
			Seed:       m.Seed(),
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
		snap, sel, err := m.Close(report.Responsive)
		out = append(out, Cycle{
			Index:     i,
			Plan:      plan,
			Report:    report,
			Snapshot:  snap,
			Selection: sel,
			Note:      m.Note(),
		})
		if err != nil {
			return out, fmt.Errorf("scan: campaign cycle %d selection: %w", i, err)
		}
	}
	return out, nil
}

// CycleMachine is the campaign loop of §3.1 minus the scanning, with no
// I/O: it decides each cycle's plan and permutation seed (Seed+cycle)
// and, from a cycle's responsive set, the next plan or the campaign's
// end. Campaign.Run drives it with one scanner, the coordinator with a
// fleet of leased shards (rebuilding it from durable state with
// MachineAt), so both loops agree. It is single-goroutine state.
type CycleMachine struct {
	c      *Campaign
	cycles int
	// reseeder is the incremental ranking kept across cycles. A
	// recounting reseed keeps nothing: it lives for one selection.
	reseeder *core.Reseeder

	cycle int
	plan  rib.Partition
	done  bool
	note  string
}

// Machine starts the campaign's cycle machine for the given number of
// cycles. The cycle-0 plan is Targets, else the TASS selection of
// SeedSnapshot over Universe, else Universe (a full seed scan).
func (c *Campaign) Machine(cycles int) (*CycleMachine, error) {
	if cycles <= 0 {
		return nil, fmt.Errorf("scan: campaign needs at least one cycle")
	}
	if c.Universe.Len() == 0 {
		return nil, fmt.Errorf("scan: campaign needs a universe")
	}
	plan := c.Targets
	if plan.Len() == 0 {
		plan = c.Universe
	}
	m := c.MachineAt(cycles, 0, plan)
	if c.SeedSnapshot != nil && c.Targets.Len() == 0 {
		if c.DegradedReads {
			c.SeedSnapshot.SetFaultPolicy(addrset.Degrade)
		}
		sel, err := m.reseed(c.SeedSnapshot)
		if faults := c.SeedSnapshot.StorageFaults(); len(faults) > 0 && c.OnStorageFault != nil {
			for _, f := range faults {
				c.OnStorageFault(f)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("scan: campaign seed selection: %w", err)
		}
		m.plan = sel.Partition()
	}
	return m, nil
}

// MachineAt rebuilds the machine of a campaign of the given number of
// cycles that is about to scan plan as cycle number cycle. An
// incremental reseeder rebuilt this way recounts its first snapshot.
func (c *Campaign) MachineAt(cycles, cycle int, plan rib.Partition) *CycleMachine {
	m := &CycleMachine{c: c, cycles: cycles, cycle: cycle, plan: plan}
	if c.Incremental {
		m.reseeder = c.newReseeder()
	}
	return m
}

// newReseeder is the campaign's reseed policy. Selection workers:
// SelectCached reads 0 as GOMAXPROCS, the scanner's own default.
func (c *Campaign) newReseeder() *core.Reseeder {
	return core.NewReseeder(c.Universe, c.Opts, max(c.Workers, 0), c.Cache, c.Incremental)
}

// reseed draws the selection for snap; it is byte-identical across the
// incremental and recounting paths and across snapshot backings.
func (m *CycleMachine) reseed(snap *census.Snapshot) (*core.Selection, error) {
	r := m.reseeder
	if r == nil {
		r = m.c.newReseeder()
	}
	if err := r.Advance(snap, nil); err != nil {
		return nil, err
	}
	return r.Select()
}

// Cycle is the index of the cycle to scan (once Done, the last one).
func (m *CycleMachine) Cycle() int { return m.cycle }

// Plan is the partition the current cycle scans.
func (m *CycleMachine) Plan() rib.Partition { return m.plan }

// Seed is the current cycle's permutation seed.
func (m *CycleMachine) Seed() int64 { return m.c.Seed + int64(m.cycle) }

// Done reports whether the campaign is finished.
func (m *CycleMachine) Done() bool { return m.done }

// Note says why the campaign finished early, if it did.
func (m *CycleMachine) Note() string { return m.note }

// Close ends the current cycle with the responsive addresses it found:
// their census snapshot (month = cycle index) and, if it holds a host,
// its TASS selection over Universe, which the next cycle scans. After
// the last cycle, or early with a note when a cycle found or selected
// nothing, the campaign is Done; Close must not be called then. On a
// reseed error the machine stays put and the snapshot is still returned.
func (m *CycleMachine) Close(responsive []netaddr.Addr) (*census.Snapshot, *core.Selection, error) {
	protocol := m.c.Protocol
	if protocol == "" {
		protocol = "scan"
	}
	snap := census.NewSnapshot(protocol, m.cycle, responsive)
	var sel *core.Selection
	if snap.Hosts() > 0 {
		var err error
		if sel, err = m.reseed(snap); err != nil {
			return snap, nil, err
		}
	}
	switch {
	case m.cycle+1 >= m.cycles:
		m.done = true
	case sel == nil:
		m.done = true
		m.note = fmt.Sprintf("cycle %d found no responsive hosts; campaign finished early", m.cycle)
	case sel.K == 0:
		m.done = true
		m.note = fmt.Sprintf("cycle %d selected no prefixes (no responsive hosts); campaign finished early", m.cycle)
	default:
		m.cycle++
		m.plan = sel.Partition()
	}
	return snap, sel, nil
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
