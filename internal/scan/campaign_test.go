package scan

import (
	"context"
	"strings"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// campaignFixture: a universe of four /24s where hosts live almost
// entirely in two of them — the shape TASS exploits.
func campaignFixture(t *testing.T) (rib.Partition, []netaddr.Addr) {
	t.Helper()
	uni, err := rib.NewPartition([]netaddr.Prefix{
		pfx("10.0.0.0/24"), pfx("10.0.1.0/24"), pfx("10.0.2.0/24"), pfx("10.0.3.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var live []netaddr.Addr
	for i := 0; i < 100; i++ { // dense /24s
		live = append(live, netaddr.MustParseAddr("10.0.0.0")+netaddr.Addr(i*2))
		live = append(live, netaddr.MustParseAddr("10.0.2.0")+netaddr.Addr(i*2))
	}
	live = append(live, netaddr.MustParseAddr("10.0.1.77")) // stragglers
	live = append(live, netaddr.MustParseAddr("10.0.3.99"))
	return uni, live
}

// TestCampaignFeedbackTightensPlan runs the scan→census→select loop and
// checks that cycle 0's full scan seeds a selection that shrinks the
// plan, and that later cycles keep finding the covered hosts.
func TestCampaignFeedbackTightensPlan(t *testing.T) {
	uni, live := campaignFixture(t)
	prober, err := NewSimProber(live, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{
		Universe: uni,
		Prober:   prober,
		Opts:     core.Options{Phi: 0.9},
		Workers:  4,
		Seed:     5,
		Cache:    census.NewCountCache(),
		Protocol: "test",
	}
	cycles, err := c.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 3 {
		t.Fatalf("%d cycles, want 3", len(cycles))
	}

	c0 := cycles[0]
	if c0.Plan.AddressCount() != uni.AddressCount() {
		t.Errorf("cycle 0 scanned %d addresses, want the full universe %d",
			c0.Plan.AddressCount(), uni.AddressCount())
	}
	if c0.Report.Probed != uni.AddressCount() {
		t.Errorf("cycle 0 probed %d, want %d", c0.Report.Probed, uni.AddressCount())
	}
	if c0.Snapshot.Hosts() != len(live) {
		t.Errorf("lossless seed scan found %d hosts, want %d", c0.Snapshot.Hosts(), len(live))
	}

	// The feedback: cycles 1+ scan the tightened selection (the two
	// dense /24s cover 200/202 hosts > φ=0.9).
	for _, cy := range cycles[1:] {
		if cy.Plan.AddressCount() >= uni.AddressCount() {
			t.Errorf("cycle %d plan did not tighten: %d addresses", cy.Index, cy.Plan.AddressCount())
		}
		if cy.Plan.Len() != 2 {
			t.Errorf("cycle %d plan has %d prefixes, want the 2 dense /24s", cy.Index, cy.Plan.Len())
		}
		if cy.Report.Probed != cy.Plan.AddressCount() {
			t.Errorf("cycle %d probed %d of a %d-address plan", cy.Index, cy.Report.Probed, cy.Plan.AddressCount())
		}
		if cy.Snapshot.Hosts() != 200 {
			t.Errorf("cycle %d found %d hosts inside the selection, want 200", cy.Index, cy.Snapshot.Hosts())
		}
	}

	// Evaluation helpers.
	truth := census.NewSnapshot("test", 0, live)
	if hr := cycles[1].Hitrate(truth); hr < 0.98*200/202.0 || hr > 1 {
		t.Errorf("cycle 1 hitrate vs truth = %v", hr)
	}
	if cs := cycles[1].CostShare(uni); cs != 0.5 {
		t.Errorf("cycle 1 cost share = %v, want 0.5 (2 of 4 /24s)", cs)
	}
}

// TestCampaignDeterministicAcrossWorkers: the cycles' snapshots and
// selections are identical at any worker count — the golden-equality
// property the scan-in-the-loop experiment relies on.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	uni, live := campaignFixture(t)
	run := func(workers int) []Cycle {
		prober, err := NewSimProber(live, 0.2, 11) // lossy, deterministic per address
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{
			Universe: uni,
			Prober:   prober,
			Opts:     core.Options{Phi: 0.95},
			Workers:  workers,
			Seed:     13,
		}
		cycles, err := c.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	golden := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range golden {
			g, h := golden[i], got[i]
			if len(g.Snapshot.Addrs) != len(h.Snapshot.Addrs) {
				t.Fatalf("workers=%d cycle %d: %d vs %d hosts", workers, i, len(h.Snapshot.Addrs), len(g.Snapshot.Addrs))
			}
			for j := range g.Snapshot.Addrs {
				if g.Snapshot.Addrs[j] != h.Snapshot.Addrs[j] {
					t.Fatalf("workers=%d cycle %d addr %d differs", workers, i, j)
				}
			}
			if g.Selection.K != h.Selection.K || g.Selection.Space != h.Selection.Space {
				t.Fatalf("workers=%d cycle %d: selection K=%d space=%d, want K=%d space=%d",
					workers, i, h.Selection.K, h.Selection.Space, g.Selection.K, g.Selection.Space)
			}
		}
	}
}

// TestCampaignIncrementalGoldenEquality: an incremental campaign
// (ranking repaired by each cycle's scan-result delta) produces cycle
// outputs byte-identical to the full per-cycle recompute — snapshots,
// complete rankings and plans — including under probe loss, which makes
// every cycle's responsive set churn.
func TestCampaignIncrementalGoldenEquality(t *testing.T) {
	uni, live := campaignFixture(t)
	run := func(incremental bool, loss float64, workers int) []Cycle {
		prober, err := NewSimProber(live, loss, 17)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{
			Universe:    uni,
			Prober:      prober,
			Opts:        core.Options{Phi: 0.9},
			Workers:     workers,
			Seed:        23,
			Cache:       census.NewCountCache(),
			Incremental: incremental,
		}
		cycles, err := c.Run(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	for _, loss := range []float64{0, 0.25} {
		for _, workers := range []int{1, 2, 8} {
			full := run(false, loss, workers)
			inc := run(true, loss, workers)
			for i := range full {
				f, g := full[i], inc[i]
				if len(f.Snapshot.Addrs) != len(g.Snapshot.Addrs) {
					t.Fatalf("loss=%v workers=%d cycle %d: %d vs %d hosts", loss, workers, i,
						len(g.Snapshot.Addrs), len(f.Snapshot.Addrs))
				}
				for j := range f.Snapshot.Addrs {
					if f.Snapshot.Addrs[j] != g.Snapshot.Addrs[j] {
						t.Fatalf("loss=%v workers=%d cycle %d: snapshot addr %d differs", loss, workers, i, j)
					}
				}
				fs, gs := f.Selection, g.Selection
				if fs.K != gs.K || fs.SeedHosts != gs.SeedHosts || fs.Space != gs.Space ||
					fs.HostCoverage != gs.HostCoverage || fs.SpaceShare != gs.SpaceShare {
					t.Fatalf("loss=%v workers=%d cycle %d: selection header diverged", loss, workers, i)
				}
				if len(fs.Ranked) != len(gs.Ranked) {
					t.Fatalf("loss=%v workers=%d cycle %d: ranking length %d vs %d",
						loss, workers, i, len(gs.Ranked), len(fs.Ranked))
				}
				for j := range fs.Ranked {
					if fs.Ranked[j] != gs.Ranked[j] {
						t.Fatalf("loss=%v workers=%d cycle %d: rank %d diverged", loss, workers, i, j)
					}
				}
				fp, gp := f.Plan.Prefixes(), g.Plan.Prefixes()
				if len(fp) != len(gp) {
					t.Fatalf("loss=%v workers=%d cycle %d: plan sizes diverge", loss, workers, i)
				}
				for j := range fp {
					if fp[j] != gp[j] {
						t.Fatalf("loss=%v workers=%d cycle %d: plan prefix %d diverged", loss, workers, i, j)
					}
				}
			}
		}
	}
}

// TestCampaignProberAt steps the prober per cycle (the churning-truth
// hook the experiment uses).
func TestCampaignProberAt(t *testing.T) {
	uni, live := campaignFixture(t)
	calls := make([]int, 0, 2)
	c := &Campaign{
		Universe: uni,
		ProberAt: func(cycle int) Prober {
			calls = append(calls, cycle)
			p, _ := NewSimProber(live, 0, int64(cycle+1))
			return p
		},
		Opts: core.Options{Phi: 0.9},
		Seed: 2,
	}
	if _, err := c.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != 0 || calls[1] != 1 {
		t.Errorf("ProberAt called with %v, want [0 1]", calls)
	}
}

func TestCampaignValidation(t *testing.T) {
	uni, live := campaignFixture(t)
	prober, _ := NewSimProber(live, 0, 1)
	if _, err := (&Campaign{Prober: prober}).Run(context.Background(), 1); err == nil {
		t.Error("campaign without universe accepted")
	}
	if _, err := (&Campaign{Universe: uni}).Run(context.Background(), 1); err == nil {
		t.Error("campaign without prober accepted")
	}
	if _, err := (&Campaign{Universe: uni, Prober: prober}).Run(context.Background(), 0); err == nil {
		t.Error("zero cycles accepted")
	}
}

// TestCampaignFindsNothingFinishesEarly: a cycle that finds no host
// cannot seed a selection, so the campaign finishes early — returning
// the cycle it scanned, a nil error and the same note the coordinator
// gives — in both reseed modes, instead of failing and dropping the
// cycle's report.
func TestCampaignFindsNothingFinishesEarly(t *testing.T) {
	uni, _ := campaignFixture(t)
	for _, incremental := range []bool{false, true} {
		dead, err := NewSimProber(nil, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		c := &Campaign{Universe: uni, Prober: dead, Opts: core.Options{Phi: 0.9}, Seed: 3, Incremental: incremental}
		cycles, err := c.Run(context.Background(), 3)
		if err != nil {
			t.Fatalf("incremental=%v: campaign that found nothing failed: %v", incremental, err)
		}
		if len(cycles) != 1 {
			t.Fatalf("incremental=%v: %d cycles, want the one seed scan", incremental, len(cycles))
		}
		cy := cycles[0]
		if cy.Report == nil || cy.Report.Probed != uni.AddressCount() || cy.Snapshot.Hosts() != 0 {
			t.Errorf("incremental=%v: seed scan report lost: %+v", incremental, cy.Report)
		}
		if cy.Selection != nil {
			t.Errorf("incremental=%v: empty cycle carries a selection", incremental)
		}
		if want := "cycle 0 found no responsive hosts; campaign finished early"; cy.Note != want {
			t.Errorf("incremental=%v: note %q, want %q", incremental, cy.Note, want)
		}
	}
}

// TestCampaignReseedErrorKeepsCycle: when only the reseed after a scan
// fails, Run returns that cycle's report alongside the error.
func TestCampaignReseedErrorKeepsCycle(t *testing.T) {
	uni, live := campaignFixture(t)
	prober, err := NewSimProber(live, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{Universe: uni, Prober: prober, Opts: core.Options{Phi: 1.5}}
	cycles, err := c.Run(context.Background(), 2)
	if err == nil || !strings.Contains(err.Error(), "selection") {
		t.Fatalf("invalid φ: err = %v, want a selection error", err)
	}
	if len(cycles) != 1 || cycles[0].Report == nil || cycles[0].Snapshot.Hosts() != len(live) {
		t.Fatalf("failed reseed dropped the scanned cycle: %d cycles", len(cycles))
	}
}

// TestCycleMachineCloseAllOrNothing drives the machine without a
// scanner: a close the reseed refuses leaves it on the same cycle and
// plan, and a retried close with a seedable set advances it.
func TestCycleMachineCloseAllOrNothing(t *testing.T) {
	uni, live := campaignFixture(t)
	m, err := (&Campaign{Universe: uni, Opts: core.Options{Phi: 0.9}, Seed: 40}).Machine(2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycle() != 0 || m.Plan().Len() != uni.Len() || m.Seed() != 40 || m.Done() {
		t.Fatalf("fresh machine at cycle %d, %d-prefix plan, seed %d, done %v", m.Cycle(), m.Plan().Len(), m.Seed(), m.Done())
	}
	outside := []netaddr.Addr{netaddr.MustParseAddr("192.0.2.1")}
	if _, _, err := m.Close(outside); err == nil {
		t.Fatal("close on hosts outside the universe succeeded")
	}
	if m.Cycle() != 0 || m.Plan().Len() != uni.Len() || m.Done() {
		t.Fatalf("refused close moved the machine to cycle %d", m.Cycle())
	}
	snap, sel, err := m.Close(live)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Hosts() != len(live) || sel == nil || m.Cycle() != 1 || m.Seed() != 41 || m.Plan().Len() != 2 {
		t.Fatalf("retried close: cycle %d, seed %d, %d-prefix plan", m.Cycle(), m.Seed(), m.Plan().Len())
	}
	// The last cycle still selects (the single-node result a caller
	// keeps), then the campaign is done without a note.
	if _, sel, err := m.Close(live[:10]); err != nil || sel == nil || !m.Done() || m.Note() != "" {
		t.Fatalf("last close: sel %v, err %v, done %v, note %q", sel, err, m.Done(), m.Note())
	}
}
