package churn

import (
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/topo"
)

func testUniverse(t testing.TB, seed int64) *topo.Universe {
	t.Helper()
	cfg := topo.SmallConfig(seed)
	cfg.Allocated = []netaddr.Prefix{netaddr.MustParsePrefix("20.0.0.0/8")}
	cfg.Protocols = topo.DefaultProfiles(0.004)
	u, err := topo.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestStepPreservesInvariants(t *testing.T) {
	u := testUniverse(t, 21)
	sim := New(u, 99)
	for m := 0; m < 3; m++ {
		sim.Step()
	}
	if sim.Month() != 3 {
		t.Fatalf("Month = %d", sim.Month())
	}
	for _, name := range u.Protocols() {
		for _, h := range u.Pops[name].Hosts {
			lp := u.Less.Prefix(int(h.LIdx))
			if !lp.Contains(h.Addr) {
				t.Fatalf("%s: host %v outside its l-prefix %v after churn", name, h.Addr, lp)
			}
		}
	}
}

func TestStepPopulationStationary(t *testing.T) {
	u := testUniverse(t, 22)
	before := len(u.Pops["http"].Hosts)
	sim := New(u, 1)
	for m := 0; m < 6; m++ {
		sim.Step()
	}
	if after := len(u.Pops["http"].Hosts); after != before {
		t.Fatalf("population changed: %d -> %d", before, after)
	}
}

func TestRunDeterministic(t *testing.T) {
	s1 := Run(testUniverse(t, 23), 7, 2)
	s2 := Run(testUniverse(t, 23), 7, 2)
	for name := range s1 {
		a, b := s1[name], s2[name]
		if a.Months() != b.Months() {
			t.Fatalf("%s: months differ", name)
		}
		for m := 0; m < a.Months(); m++ {
			if a.At(m).Hosts() != b.At(m).Hosts() {
				t.Fatalf("%s month %d: %d vs %d hosts", name, m, a.At(m).Hosts(), b.At(m).Hosts())
			}
			for i := range a.At(m).Addrs {
				if a.At(m).Addrs[i] != b.At(m).Addrs[i] {
					t.Fatalf("%s month %d addr %d differs", name, m, i)
				}
			}
		}
	}
}

func TestRunSeriesShape(t *testing.T) {
	series := Run(testUniverse(t, 24), 3, 6)
	if len(series) != 4 {
		t.Fatalf("protocols: %d", len(series))
	}
	for name, s := range series {
		if s.Months() != 7 {
			t.Fatalf("%s: %d snapshots, want 7", name, s.Months())
		}
		for m, snap := range s.Snapshots {
			if snap.Month != m {
				t.Fatalf("%s: snapshot %d labeled month %d", name, m, snap.Month)
			}
			if snap.Hosts() == 0 {
				t.Fatalf("%s month %d: empty snapshot", name, m)
			}
		}
	}
}

// TestHitlistDecayShape verifies the Figure 5 mechanism: an address
// hitlist taken at month 0 loses a large share of hosts after one month,
// and CWMP (mostly dynamic residential hosts) decays far more than FTP.
func TestHitlistDecayShape(t *testing.T) {
	series := Run(testUniverse(t, 25), 5, 2)
	decay := func(name string) float64 {
		s := series[name]
		base := s.At(0)
		later := s.At(1)
		return float64(census.IntersectCount(base.Addrs, later.Addrs)) / float64(later.Hosts())
	}
	ftp, cwmp := decay("ftp"), decay("cwmp")
	if ftp < 0.6 || ftp > 0.95 {
		t.Errorf("ftp hitlist hitrate after 1 month = %.3f, want roughly 0.8", ftp)
	}
	if cwmp >= ftp {
		t.Errorf("cwmp hitlist hitrate %.3f should decay faster than ftp %.3f", cwmp, ftp)
	}
}

// TestPrefixStability verifies the Figure 6 mechanism: the set of
// responsive l-prefixes at month 0 still covers the vast majority of
// hosts months later, even while the hitlist collapses.
func TestPrefixStability(t *testing.T) {
	u := testUniverse(t, 26)
	series := Run(u, 5, 3)
	for _, name := range []string{"ftp", "cwmp"} {
		s := series[name]
		base := s.At(0)
		counts, _ := base.CountByPrefix(u.Less)
		var idx []int
		for i, c := range counts {
			if c > 0 {
				idx = append(idx, i)
			}
		}
		sel := u.Less.Subset(idx)
		last := s.At(3)
		hitrate := float64(last.CountIn(sel)) / float64(last.Hosts())
		if hitrate < 0.95 {
			t.Errorf("%s: TASS-style prefix hitrate after 3 months = %.3f, want > 0.95", name, hitrate)
		}
	}
}

func BenchmarkStep(b *testing.B) {
	u := testUniverse(b, 1)
	sim := New(u, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// TestStripedGoldenEquality is the stripe determinism contract: the
// full monthly series is byte-identical across worker counts 1/2/8
// (and the GOMAXPROCS default), for several seeds. Stripes are derived
// per (protocol, stripe, month), so scheduling cannot change a single
// draw.
func TestStripedGoldenEquality(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ref := RunSim(testUniverse(t, seed), seed+10, 3, RunConfig{Workers: 1})
		for _, cfg := range []RunConfig{
			{Workers: 2},
			{Workers: 8},
			{Workers: 0},
		} {
			got := RunSim(testUniverse(t, seed), seed+10, 3, cfg)
			if len(got) != len(ref) {
				t.Fatalf("seed %d %+v: %d protocols, want %d", seed, cfg, len(got), len(ref))
			}
			for name, rs := range ref {
				gs := got[name]
				if gs.Months() != rs.Months() {
					t.Fatalf("seed %d %+v %s: months %d vs %d", seed, cfg, name, gs.Months(), rs.Months())
				}
				for m := 0; m < rs.Months(); m++ {
					ga, ra := gs.At(m).Addrs, rs.At(m).Addrs
					if len(ga) != len(ra) {
						t.Fatalf("seed %d %+v %s month %d: %d vs %d addrs", seed, cfg, name, m, len(ga), len(ra))
					}
					for i := range ra {
						if ga[i] != ra[i] {
							t.Fatalf("seed %d %+v %s month %d: addr %d differs (%v vs %v)",
								seed, cfg, name, m, i, ga[i], ra[i])
						}
					}
				}
			}
		}
	}
}

// TestSimulatorMatchesRunSim pins the Simulator step/snapshot API to
// the RunSim series: both must walk the same substream schedule.
func TestSimulatorMatchesRunSim(t *testing.T) {
	ref := RunSim(testUniverse(t, 31), 77, 2, RunConfig{Workers: 4})
	sim := New(testUniverse(t, 31), 77)
	sim.Workers = 3
	for m := 0; m <= 2; m++ {
		if m > 0 {
			sim.Step()
		}
		for name, rs := range ref {
			got := sim.Snapshot(name)
			want := rs.At(m)
			if got.Hosts() != want.Hosts() {
				t.Fatalf("%s month %d: %d vs %d hosts", name, m, got.Hosts(), want.Hosts())
			}
			for i := range want.Addrs {
				if got.Addrs[i] != want.Addrs[i] {
					t.Fatalf("%s month %d: addr %d differs", name, m, i)
				}
			}
		}
	}
}

// TestRunSimEmptyUniverse guards the degenerate no-protocols case: an
// empty map, not a worker-split division by zero.
func TestRunSimEmptyUniverse(t *testing.T) {
	u := testUniverse(t, 50)
	u.Cfg.Protocols = nil
	if got := RunSim(u, 1, 1, RunConfig{}); len(got) != 0 {
		t.Fatalf("want empty series map, got %d entries", len(got))
	}
}
