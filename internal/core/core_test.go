package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

// fixture: three prefixes with hand-computable densities.
//
//	10.0.0.0/24   4 hosts  ρ = 4/256   = 0.015625
//	20.0.0.0/16   8 hosts  ρ = 8/65536 ≈ 0.000122
//	30.0.0.0/8    4 hosts  ρ = 4/2^24  ≈ 2.4e-7
//	40.0.0.0/24   0 hosts  (must be excluded)
func fixture(t *testing.T) (*census.Snapshot, rib.Partition) {
	t.Helper()
	part, err := rib.NewPartition([]netaddr.Prefix{
		pfx("10.0.0.0/24"), pfx("20.0.0.0/16"), pfx("30.0.0.0/8"), pfx("40.0.0.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []netaddr.Addr
	for i := 0; i < 4; i++ {
		addrs = append(addrs, pfx("10.0.0.0/24").First()+netaddr.Addr(i))
	}
	for i := 0; i < 8; i++ {
		addrs = append(addrs, pfx("20.0.0.0/16").First()+netaddr.Addr(i*100))
	}
	for i := 0; i < 4; i++ {
		addrs = append(addrs, pfx("30.0.0.0/8").First()+netaddr.Addr(i*10000))
	}
	return census.NewSnapshot("ftp", 0, addrs), part
}

func TestRankOrderAndValues(t *testing.T) {
	seed, part := fixture(t)
	ranked := RankCached(seed, part, 1, nil)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d prefixes, want 3 (zero-density excluded)", len(ranked))
	}
	wantOrder := []string{"10.0.0.0/24", "20.0.0.0/16", "30.0.0.0/8"}
	for i, w := range wantOrder {
		if ranked[i].Prefix.String() != w {
			t.Fatalf("rank %d = %v, want %s", i, ranked[i].Prefix, w)
		}
	}
	if ranked[0].Hosts != 4 || ranked[0].Density != 4.0/256 {
		t.Errorf("rank 0 stats: %+v", ranked[0])
	}
	if ranked[1].Coverage != 8.0/16 {
		t.Errorf("rank 1 coverage: %v", ranked[1].Coverage)
	}
}

func TestSelectPhi1(t *testing.T) {
	seed, part := fixture(t)
	sel, err := SelectCached(seed, part, Options{Phi: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 3 {
		t.Fatalf("K = %d, want all 3 responsive prefixes", sel.K)
	}
	if sel.HostCoverage != 1 {
		t.Errorf("HostCoverage = %v", sel.HostCoverage)
	}
	wantSpace := uint64(256 + 65536 + 1<<24)
	if sel.Space != wantSpace {
		t.Errorf("Space = %d, want %d", sel.Space, wantSpace)
	}
	// The zero-density 40.0.0.0/24 must not be selected.
	for _, p := range sel.Prefixes() {
		if p == pfx("40.0.0.0/24") {
			t.Error("zero-density prefix selected")
		}
	}
}

func TestSelectPartialPhi(t *testing.T) {
	seed, part := fixture(t)
	// φ=0.25: rank-1 prefix already covers 4/16 = 0.25, but the paper's
	// step 4 requires Σφ_i > φ strictly, so one prefix is enough only
	// when its coverage strictly exceeds 0.25. 4/16 == 0.25, so K must
	// be 2.
	sel, err := SelectCached(seed, part, Options{Phi: 0.25}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 2 {
		t.Fatalf("K = %d, want 2 (strict >φ)", sel.K)
	}
	// φ=0.2: first prefix covers 0.25 > 0.2 → K=1.
	sel, err = SelectCached(seed, part, Options{Phi: 0.2}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 {
		t.Fatalf("K = %d, want 1", sel.K)
	}
	if sel.HostCoverage != 0.25 {
		t.Errorf("HostCoverage = %v", sel.HostCoverage)
	}
	if sel.Space != 256 {
		t.Errorf("Space = %d", sel.Space)
	}
}

func TestSelectMinDensity(t *testing.T) {
	seed, part := fixture(t)
	// Threshold between rank-2 (ρ≈1.2e-4) and rank-3 (ρ≈2.4e-7).
	sel, err := SelectCached(seed, part, Options{Phi: 1, MinDensity: 1e-5}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 2 {
		t.Fatalf("K = %d, want 2 (density cut)", sel.K)
	}
	if sel.HostCoverage != 12.0/16 {
		t.Errorf("HostCoverage = %v", sel.HostCoverage)
	}
}

func TestSelectMaxPrefixes(t *testing.T) {
	seed, part := fixture(t)
	sel, err := SelectCached(seed, part, Options{Phi: 1, MaxPrefixes: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 {
		t.Fatalf("K = %d, want 1", sel.K)
	}
}

func TestSelectErrors(t *testing.T) {
	seed, part := fixture(t)
	for _, phi := range []float64{0, -0.5, 1.5} {
		if _, err := SelectCached(seed, part, Options{Phi: phi}, 1, nil); err == nil {
			t.Errorf("φ=%v accepted", phi)
		}
	}
	empty := census.NewSnapshot("ftp", 0, nil)
	if _, err := SelectCached(empty, part, Options{Phi: 1}, 1, nil); err == nil {
		t.Error("empty seed accepted")
	}
}

func TestSelectionHitrate(t *testing.T) {
	seed, part := fixture(t)
	sel, err := SelectCached(seed, part, Options{Phi: 0.2}, 1, nil) // only 10.0.0.0/24
	if err != nil {
		t.Fatal(err)
	}
	later := census.NewSnapshot("ftp", 1, []netaddr.Addr{
		pfx("10.0.0.0/24").First() + 9, // inside selection
		pfx("20.0.0.0/16").First() + 1, // outside
		pfx("30.0.0.0/8").First() + 1,  // outside
		pfx("10.0.0.0/24").First() + 5, // inside
	})
	if got := sel.Hitrate(later); got != 0.5 {
		t.Fatalf("Hitrate = %v, want 0.5", got)
	}
	if got := sel.Hitrate(census.NewSnapshot("ftp", 2, nil)); got != 0 {
		t.Fatalf("Hitrate(empty) = %v", got)
	}
}

func TestSelectionEfficiency(t *testing.T) {
	seed, part := fixture(t)
	sel, err := SelectCached(seed, part, Options{Phi: 0.2}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 256 probes for 4 hosts.
	if got := sel.Efficiency(); got != 64 {
		t.Fatalf("Efficiency = %v, want 64", got)
	}
}

// TestSelectionInvariants property-tests the algorithm's defining
// invariants on random universes.
func TestSelectionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64, phiRaw uint8) bool {
		phi := 0.05 + 0.95*float64(phiRaw)/255 // (0,1]
		local := rand.New(rand.NewSource(seed))
		// Random disjoint partition of /16s under 10.0.0.0/8.
		var ps []netaddr.Prefix
		for i := 0; i < 64; i++ {
			ps = append(ps, netaddr.MustPrefixFrom(
				netaddr.AddrFrom4(10, byte(i*4), 0, 0), 16))
		}
		part, err := rib.NewPartition(ps)
		if err != nil {
			return false
		}
		var addrs []netaddr.Addr
		for i := 0; i < 2000; i++ {
			p := ps[local.Intn(len(ps))]
			if local.Intn(4) == 0 {
				continue // leave some prefixes sparse or empty
			}
			addrs = append(addrs, p.First()+netaddr.Addr(local.Intn(1<<16)))
		}
		if len(addrs) == 0 {
			return true
		}
		snap := census.NewSnapshot("p", 0, addrs)
		sel, err := SelectCached(snap, part, Options{Phi: phi}, 1, nil)
		if err != nil {
			return false
		}
		// (1) Achieved coverage exceeds φ (or equals 1 at φ=1).
		if sel.HostCoverage < phi && !(phi == 1 && sel.HostCoverage == 1) {
			return false
		}
		// (2) Minimality: dropping the last selected prefix would fall
		// to or below φ (for φ<1) — the "smallest k" requirement.
		if sel.K > 1 && phi < 1 {
			withoutLast := sel.HostCoverage -
				float64(sel.Ranked[sel.K-1].Hosts)/float64(sel.SeedHosts)
			if withoutLast > phi+1e-12 {
				return false
			}
		}
		// (3) Ranking is by non-increasing density.
		for i := 1; i < len(sel.Ranked); i++ {
			if sel.Ranked[i].Density > sel.Ranked[i-1].Density+1e-15 {
				return false
			}
		}
		// (4) Hitrate on the seed snapshot equals achieved coverage.
		if h := sel.Hitrate(snap); h < sel.HostCoverage-1e-9 || h > sel.HostCoverage+1e-9 {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageCurve(t *testing.T) {
	seed, part := fixture(t)
	ranked := RankCached(seed, part, 1, nil)
	curve := CoverageCurve(ranked, part.AddressCount(), 0)
	if len(curve) != 3 {
		t.Fatalf("curve has %d points", len(curve))
	}
	last := curve[len(curve)-1]
	if last.HostCov != 1 {
		t.Errorf("final host coverage %v", last.HostCov)
	}
	// Space share of all responsive prefixes: (256+65536+2^24)/(part space).
	want := float64(256+65536+1<<24) / float64(part.AddressCount())
	if last.SpaceShare != want {
		t.Errorf("final space share %v, want %v", last.SpaceShare, want)
	}
	// Downsampling caps the point count.
	small := CoverageCurve(ranked, part.AddressCount(), 2)
	if len(small) > 3 {
		t.Errorf("downsampled curve has %d points", len(small))
	}
	if small[len(small)-1].Rank != 3 {
		t.Error("downsampled curve must keep the final rank")
	}
	if CoverageCurve[netaddr.Addr](nil, 1, 0) != nil {
		t.Error("empty ranking must give empty curve")
	}
}

// TestRankPackedMatchesComparator pins the key-packed slices.Sort in
// RankCached to the comparator ordering it replaced: random partitions
// of mixed prefix lengths, with host counts rigged to produce every tie
// shape — equal density at equal length (prefix-order tie), and equal
// density at different lengths (host-count tie).
func TestRankPackedMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		part, addrs := tieUniverse[netaddr.Addr](rng, 40)
		seed := census.NewSnapshot("x", 0, addrs)
		got := RankCached(seed, part, 1, nil)

		// Reference: the pre-packing comparator ordering.
		want := append([]PrefixStat(nil), got...)
		sort.SliceStable(want, func(a, b int) bool {
			sa, sb := &want[a], &want[b]
			if sa.Density != sb.Density {
				return sa.Density > sb.Density
			}
			if sa.Hosts != sb.Hosts {
				return sa.Hosts > sb.Hosts
			}
			return sa.Prefix.Compare(sb.Prefix) < 0
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: got %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}
