package core

import (
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// gridFixture builds a universe of /24s with skewed densities and a
// matching seed snapshot.
func gridFixture(t *testing.T) (*census.Snapshot, rib.Partition) {
	t.Helper()
	var ps []netaddr.Prefix
	var addrs []netaddr.Addr
	for i := 0; i < 512; i++ {
		base := netaddr.Addr(0x0A000000 + uint32(i)<<8)
		ps = append(ps, netaddr.MustPrefixFrom(base, 24))
		// Heavy-tailed host counts: a few dense prefixes, a long sparse
		// tail, some empty.
		hosts := 0
		switch {
		case i%97 == 0:
			hosts = 200
		case i%7 == 0:
			hosts = 11
		case i%3 == 0:
			hosts = 1
		}
		for h := 0; h < hosts; h++ {
			addrs = append(addrs, base+netaddr.Addr(h))
		}
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	return census.NewSnapshot("ftp", 0, addrs), part
}

func TestSelectManyMatchesSelect(t *testing.T) {
	seed, part := gridFixture(t)
	phis := []float64{1, 0.99, 0.95, 0.7, 0.5}
	for _, workers := range []int{0, 1, 2, 8} {
		grid := make([]Options, len(phis))
		for i, phi := range phis {
			grid[i] = Options{Phi: phi}
		}
		sels, err := SelectManyCached(seed, part, grid, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, phi := range phis {
			want, err := SelectCached(seed, part, Options{Phi: phi}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := sels[i]
			if got.K != want.K || got.SeedHosts != want.SeedHosts ||
				got.HostCoverage != want.HostCoverage ||
				got.Space != want.Space || got.SpaceShare != want.SpaceShare {
				t.Errorf("workers=%d φ=%v: %+v, want %+v", workers, phi, got, want)
			}
			if len(got.Ranked) != len(want.Ranked) {
				t.Fatalf("workers=%d φ=%v: ranked %d vs %d", workers, phi, len(got.Ranked), len(want.Ranked))
			}
			for j := range want.Ranked {
				if got.Ranked[j] != want.Ranked[j] {
					t.Fatalf("workers=%d φ=%v: rank %d differs", workers, phi, j)
				}
			}
		}
	}
}

func TestSelectManyPropagatesErrors(t *testing.T) {
	seed, part := gridFixture(t)
	if _, err := SelectManyCached(seed, part, []Options{{Phi: 0.95}, {Phi: 0}}, 4, nil); err == nil {
		t.Error("invalid φ in the grid must fail")
	}
}

// TestRankCachedWorkersMatchSerial pins the sharded counting walk: the
// ranking at any worker count equals the single-worker one.
func TestRankCachedWorkersMatchSerial(t *testing.T) {
	seed, part := gridFixture(t)
	want := RankCached(seed, part, 1, nil)
	for _, workers := range []int{0, 2, 16} {
		got := RankCached(seed, part, workers, nil)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d ranked, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: rank %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}
