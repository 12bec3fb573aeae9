package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// This file preserves the pre-generic IPv6 selection implementation
// verbatim (as legacyRank6 / legacySelect6) and pins the Addr6
// instantiation of the generic engine to it: on duplicate-free seeds
// the two must agree bit for bit — same ranking order, same densities,
// same K, coverage and SpaceBits. The one intended behavior change of
// the fold-in is duplicate handling (the generic path has set
// semantics), so fixtures here draw unique seeds.

// PrefixStat6 is the Addr6 ranking stat the legacy implementation
// returns.
type PrefixStat6 = StatOf[netaddr.Addr6]

type legacyUniverse struct {
	prefixes []netaddr.Prefix6
}

func legacyNewUniverse(ps []netaddr.Prefix6) legacyUniverse {
	cp := make([]netaddr.Prefix6, len(ps))
	copy(cp, ps)
	sort.Slice(cp, func(i, j int) bool {
		if c := cp[i].Addr().Compare(cp[j].Addr()); c != 0 {
			return c < 0
		}
		return cp[i].Bits() < cp[j].Bits()
	})
	return legacyUniverse{prefixes: cp}
}

func (u legacyUniverse) find(a netaddr.Addr6) (int, bool) {
	i := sort.Search(len(u.prefixes), func(i int) bool {
		return u.prefixes[i].Addr().Compare(a) > 0
	})
	if i == 0 {
		return 0, false
	}
	i--
	if u.prefixes[i].Contains(a) {
		return i, true
	}
	return 0, false
}

func legacyRank6(seeds []netaddr.Addr6, u legacyUniverse) []PrefixStat6 {
	counts := make([]int, len(u.prefixes))
	total := 0
	for _, a := range seeds {
		if i, ok := u.find(a); ok {
			counts[i]++
			total++
		}
	}
	out := make([]PrefixStat6, 0, len(counts)/2)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		p := u.prefixes[i]
		out = append(out, PrefixStat6{
			Prefix:   p,
			Hosts:    c,
			Density:  float64(c) / math.Pow(2, float64(128-p.Bits())),
			Coverage: float64(c) / float64(total),
		})
	}
	sort.Slice(out, func(a, b int) bool {
		sa, sb := &out[a], &out[b]
		if sa.Density != sb.Density {
			return sa.Density > sb.Density
		}
		if sa.Hosts != sb.Hosts {
			return sa.Hosts > sb.Hosts
		}
		return sa.Prefix.Addr().Compare(sb.Prefix.Addr()) < 0
	})
	return out
}

type legacySelection struct {
	ranked       []PrefixStat6
	k            int
	seedHosts    int
	hostCoverage float64
	spaceBits    float64
}

func legacySelect6(seeds []netaddr.Addr6, u legacyUniverse, phi float64) *legacySelection {
	ranked := legacyRank6(seeds, u)
	total := 0
	for i := range ranked {
		total += ranked[i].Hosts
	}
	if total == 0 {
		return nil
	}
	sel := &legacySelection{ranked: ranked, seedHosts: total}
	covered := 0
	space := 0.0
	for i := range ranked {
		covered += ranked[i].Hosts
		space += math.Pow(2, float64(128-ranked[i].Prefix.Bits()))
		sel.k = i + 1
		if float64(covered) > phi*float64(total) || (phi == 1 && covered == total) {
			break
		}
	}
	sel.hostCoverage = float64(covered) / float64(total)
	sel.spaceBits = math.Log2(space)
	return sel
}

// equivFixture builds a random disjoint universe and unique in- and
// out-of-universe seeds.
func equivFixture(rng *rand.Rand, nPrefixes, nSeeds int) ([]netaddr.Prefix6, []netaddr.Addr6) {
	var ps []netaddr.Prefix6
	for i := 0; i < nPrefixes; i++ {
		a := netaddr.Addr6{Hi: 0x2000_0000_0000_0000 + uint64(i)<<40}
		bits := 24 + rng.Intn(41) // /24 .. /64, all inside the /24 slots
		p, err := netaddr.Prefix6From(a, bits)
		if err != nil {
			panic(err)
		}
		ps = append(ps, p)
	}
	seen := make(map[netaddr.Addr6]bool)
	var seeds []netaddr.Addr6
	for len(seeds) < nSeeds {
		var a netaddr.Addr6
		if rng.Intn(8) == 0 {
			// Occasionally outside the universe.
			a = netaddr.Addr6{Hi: 0x3000_0000_0000_0000 | rng.Uint64()>>4, Lo: rng.Uint64()}
		} else {
			base := ps[rng.Intn(len(ps))]
			a = netaddr.Addr6{
				Hi: base.Addr().Hi | uint64(rng.Intn(1<<30)),
				Lo: rng.Uint64(),
			}
		}
		if seen[a] {
			continue
		}
		seen[a] = true
		seeds = append(seeds, a)
	}
	return ps, seeds
}

func TestGenericMatchesLegacyRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		ps, seeds := equivFixture(rng, 48, 2000)
		u, err := rib.NewPartition(ps)
		if err != nil {
			t.Fatal(err)
		}
		got := RankCached(census.NewSnapshotOf("seed6", 0, seeds), u, 1, nil)
		want := legacyRank6(seeds, legacyNewUniverse(ps))
		if len(got) != len(want) {
			t.Fatalf("trial %d: ranked %d prefixes, legacy %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Prefix != want[i].Prefix || got[i].Hosts != want[i].Hosts {
				t.Fatalf("trial %d rank %d: got %v/%d, legacy %v/%d",
					trial, i, got[i].Prefix, got[i].Hosts, want[i].Prefix, want[i].Hosts)
			}
			// Bit-exact: Ldexp and the Pow division agree on powers of two.
			if got[i].Density != want[i].Density || got[i].Coverage != want[i].Coverage {
				t.Fatalf("trial %d rank %d: density %v vs %v, coverage %v vs %v",
					trial, i, got[i].Density, want[i].Density, got[i].Coverage, want[i].Coverage)
			}
		}
	}
}

func TestGenericMatchesLegacySelect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		ps, seeds := equivFixture(rng, 48, 2000)
		u, err := rib.NewPartition(ps)
		if err != nil {
			t.Fatal(err)
		}
		seed := census.NewSnapshotOf("seed6", 0, seeds)
		lu := legacyNewUniverse(ps)
		for _, phi := range []float64{0.3, 0.5, 0.9, 0.99, 1} {
			got, err := SelectCached(seed, u, Options{Phi: phi}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := legacySelect6(seeds, lu, phi)
			if want == nil {
				t.Fatal("legacy found no seeds in universe")
			}
			if got.K != want.k || got.SeedHosts != want.seedHosts {
				t.Fatalf("trial %d φ=%v: K=%d/%d seedHosts=%d/%d",
					trial, phi, got.K, want.k, got.SeedHosts, want.seedHosts)
			}
			if got.HostCoverage != want.hostCoverage {
				t.Fatalf("trial %d φ=%v: coverage %v vs legacy %v", trial, phi, got.HostCoverage, want.hostCoverage)
			}
			if got.SpaceBits != want.spaceBits {
				t.Fatalf("trial %d φ=%v: SpaceBits %v vs legacy %v", trial, phi, got.SpaceBits, want.spaceBits)
			}
		}
	}
}
