package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
	"github.com/tass-scan/tass/internal/topo"
)

const (
	// scanMonths is how many census months the campaign and fleet
	// iterations cycle through; month m+1 is month m's ground truth.
	scanMonths = 6
	phi        = 0.95
	lossRate   = 0.03
	// probeRate is far above what two workers reach, so pacing never
	// sleeps, but the limiter still runs on every probe: a paced run's
	// wall time would only be plan size over rate.
	probeRate = 1e9
)

var selectOpts = core.Options{Phi: phi}

// scanWorld is the campaign and fleet input: one http-shaped protocol
// with low monthly churn on one allocated block, and seven monthly
// snapshots of it.
type scanWorld struct {
	seed     int64
	universe rib.Partition
	table    *rib.Table
	months   []*census.Snapshot // months 0..scanMonths
	probers  []*scan.SimProber  // probers[m] answers from month m+1's hosts
	exclude  []netaddr.Prefix
}

func buildScanWorld(seed int64, sz sizes, ph phases) (*scanWorld, error) {
	done := ph.time("topo")
	// The low-churn profile of the root package's incremental benchmarks:
	// ≈2.5 % monthly address churn, and a heavy density tail so φ cuts
	// at a dense head.
	prof := topo.DefaultProfiles(sz.scanScale)[1] // http
	prof.DynamicShare = 0.01
	prof.DeathRate = 0.010
	prof.MoveRate = 0.004
	prof.DensitySigma = 3.0
	u, err := topo.Generate(topoConfig([]netaddr.Prefix{sz.scanBlock}, prof))
	done()
	if err != nil {
		return nil, err
	}
	done = ph.time("churn")
	series := churn.RunSim(u, worldSeed, scanMonths, churn.RunConfig{Workers: benchWorkers})[prof.Name]
	done()
	w := &scanWorld{seed: seed, universe: u.More, table: u.Table, months: series.Snapshots}
	for m := 0; m < scanMonths; m++ {
		p, err := scan.NewSimProber(series.At(m+1).Addrs, lossRate, seed)
		if err != nil {
			return nil, err
		}
		w.probers = append(w.probers, p)
	}
	// A fixed operator blocklist of 16 prefixes, 0.8 % of the block: one
	// at the start of every sixteenth (a /20 in a /9).
	step := sz.scanBlock.NumAddresses() / 16
	for k := uint64(0); k < 16; k++ {
		w.exclude = append(w.exclude, netaddr.MustPrefixFrom(sz.scanBlock.First()+netaddr.Addr(k*step), sz.scanBlock.Bits()+11))
	}
	return w, nil
}

// permSeed is the probe-order seed of a campaign seeded from month m.
func (w *scanWorld) permSeed(m int) int64 { return w.seed*scanMonths + int64(m) }

// campaignBench is the single-node Δt-reseed loop: each iteration opens
// a month's census lazily, seeds a one-cycle incremental campaign from
// it, scans the plan against the next month and re-ranks from the scan's
// own results.
type campaignBench struct {
	w     *scanWorld
	dir   string
	files []string // census month m, TASSNAP3
}

func setupCampaign(seed int64, sz sizes, ph phases) (instance, error) {
	w, err := buildScanWorld(seed, sz, ph)
	if err != nil {
		return nil, err
	}
	done := ph.time("write")
	defer done()
	b := &campaignBench{w: w}
	if b.dir, err = os.MkdirTemp("", "tassbench-campaign-"); err != nil {
		return nil, err
	}
	for m := 0; m < scanMonths; m++ {
		path := filepath.Join(b.dir, fmt.Sprintf("census-%d.snap", m))
		if err := census.WriteSnapshotFile(path, w.months[m]); err != nil {
			b.close()
			return nil, err
		}
		b.files = append(b.files, path)
	}
	return b, nil
}

func (b *campaignBench) close() error { return os.RemoveAll(b.dir) }

// campaign is the loop's configuration for month m.
func (b *campaignBench) campaign(m int, seed *census.Snapshot, incremental bool) *scan.Campaign {
	return &scan.Campaign{
		Universe:     b.w.universe,
		SeedSnapshot: seed,
		ProberAt:     func(int) scan.Prober { return b.w.probers[m] },
		Opts:         selectOpts,
		Incremental:  incremental,
		Rate:         probeRate,
		Workers:      benchWorkers,
		Seed:         b.w.permSeed(m),
		Exclude:      b.w.exclude,
		Politeness:   scan.Politeness{ASRate: probeRate, Footprint: true},
		OriginsOf:    b.w.table.OriginsOf,
	}
}

// cycleOut is what one campaign cycle decided.
type cycleOut struct {
	plan  rib.Partition
	rep   *scan.Report
	found *census.Snapshot
	next  *core.Selection
}

func (c cycleOut) digest() uint64 {
	h := newDigest()
	for _, p := range c.plan.Prefixes() {
		putU64(h, uint64(p.Addr()), uint64(p.Bits()))
	}
	putU64(h, c.rep.Probed, c.rep.Excluded, c.rep.Errors, c.rep.BudgetDenied)
	putAddrs(h, c.rep.Responsive)
	putSelection(h, c.next)
	return h.Sum64()
}

func (b *campaignBench) iterate(ctx context.Context, i int, tr *tracer, root int32) (result, error) {
	m := i % scanMonths
	var (
		out  cycleOut
		snap *census.Snapshot
	)
	if tr == nil {
		var err error
		if snap, err = census.OpenSnapshotFile(b.files[m]); err != nil {
			return result{}, err
		}
		cycles, err := b.campaign(m, snap, true).Run(ctx, 1)
		if err != nil {
			snap.Close()
			return result{}, err
		}
		cy := cycles[0]
		out = cycleOut{plan: cy.Plan, rep: cy.Report, found: cy.Snapshot, next: cy.Selection}
	} else {
		// The calls Campaign.Run makes, one span each.
		st := steps{tr: tr, root: root}
		var (
			r       *core.Ranker
			sel     *core.Selection
			origins []uint32
			sc      *scan.Scanner
			d       *census.Delta
		)
		st.do("census.open", func() (err error) { snap, err = census.OpenSnapshotFile(b.files[m]); return })
		st.do("core.rank", func() (err error) { r, err = core.NewRanker(snap, b.w.universe, benchWorkers, nil); return })
		st.do("core.select", func() (err error) { sel, err = r.Select(selectOpts); return })
		st.do("rib.origins", func() error { out.plan = sel.Partition(); origins = b.w.table.OriginsOf(out.plan); return nil })
		st.do("scan.new", func() (err error) {
			sc, err = scan.New(scan.Config{
				Targets:    out.plan,
				Prober:     b.w.probers[m],
				Rate:       probeRate,
				Workers:    benchWorkers,
				Seed:       b.w.permSeed(m),
				Exclude:    b.w.exclude,
				Politeness: scan.Politeness{ASRate: probeRate, Footprint: true, Origins: origins},
			})
			return
		})
		st.do("scan.run", func() (err error) { out.rep, err = sc.Run(ctx); return })
		st.do("census.snapshot", func() error { out.found = census.NewSnapshot("scan", 0, out.rep.Responsive); return nil })
		st.do("census.diff", func() error { d = snap.Diff(out.found); return nil })
		st.do("core.apply", func() error { return r.Apply(d) })
		st.do("core.select", func() (err error) { out.next, err = r.Select(selectOpts); return })
		if st.err != nil {
			if snap != nil {
				snap.Close()
			}
			return result{}, st.err
		}
	}
	set := snap.Set()
	decodes, resident := set.Decodes(), set.ResidentBlocks()
	if err := snap.Close(); err != nil {
		return result{}, err
	}
	truth := b.w.months[m+1]
	return result{
		key:       m,
		failedOps: int(out.rep.Errors),
		state:     []any{out, snap},
		finish: func() (uint64, map[string]float64) {
			return out.digest(), map[string]float64{
				"census.block_decodes":   float64(decodes),
				"census.resident_blocks": float64(resident),
				"core.space_share":       out.next.SpaceShare,
				"scan.probes":            float64(out.rep.Probed),
				"scan.traffic_share":     float64(out.rep.Probed) / float64(b.w.universe.AddressCount()),
				"scan.hosts_missed":      1 - float64(out.found.IntersectWith(truth))/float64(truth.Hosts()),
			}
		},
	}, nil
}

// check replays every month the loop saw through the full-recompute
// campaign seeded from the materialized census, and requires each
// iteration — incremental or traced — to have decided exactly the same.
func (b *campaignBench) check(ctx context.Context, res []result) error {
	want := map[int]uint64{}
	for _, r := range res {
		if _, ok := want[r.key]; ok {
			continue
		}
		snap, err := census.OpenSnapshotFile(b.files[r.key])
		if err != nil {
			return err
		}
		cycles, err := b.campaign(r.key, snap.Materialize(), false).Run(ctx, 1)
		snap.Close()
		if err != nil {
			return fmt.Errorf("month %d: full-recompute campaign: %w", r.key, err)
		}
		cy := cycles[0]
		if got := cy.Report.Probed + cy.Report.Excluded; got != cy.Plan.AddressCount() {
			return fmt.Errorf("month %d: probed+excluded %d, plan holds %d addresses", r.key, got, cy.Plan.AddressCount())
		}
		want[r.key] = cycleOut{plan: cy.Plan, rep: cy.Report, found: cy.Snapshot, next: cy.Selection}.digest()
	}
	return matchDigests(res, want)
}

// matchDigests requires every result to carry its key's oracle digest.
func matchDigests(res []result, want map[int]uint64) error {
	for i, r := range res {
		if r.digest != want[r.key] {
			return fmt.Errorf("iteration %d (key %d): output digest %016x, oracle %016x", i, r.key, r.digest, want[r.key])
		}
	}
	return nil
}

// steps runs a sequence of layer calls, each inside its own span, and
// skips the rest once one fails.
type steps struct {
	tr   *tracer
	root int32
	err  error
}

func (s *steps) do(name string, f func() error) {
	if s.err != nil {
		return
	}
	end := s.tr.span(s.root, name)
	s.err = f()
	end()
}
