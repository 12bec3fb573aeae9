package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// incPartition builds a universe of 512 /20s with mixed-length holes:
// enough prefixes that rankings have real structure, small enough that
// the test stays quick.
func incPartition(t testing.TB) rib.Partition {
	t.Helper()
	ps := make([]netaddr.Prefix, 0, 512)
	for i := 0; i < 512; i++ {
		bits := 20
		if i%7 == 0 {
			bits = 22 // a sprinkle of longer prefixes for tie shapes
		}
		ps = append(ps, netaddr.MustPrefixFrom(netaddr.Addr(1<<28+uint32(i)<<12), bits))
	}
	p, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func incSnapshot(rng *rand.Rand, month, n int) *census.Snapshot {
	seen := make(map[netaddr.Addr]bool, n)
	addrs := make([]netaddr.Addr, 0, n)
	for len(addrs) < n {
		// Concentrate on a few prefixes so densities vary and ties occur.
		block := rng.Intn(600) // some addresses fall outside the partition
		a := netaddr.Addr(1<<28 + uint32(block)<<12 + uint32(rng.Intn(64)))
		if seen[a] {
			continue
		}
		seen[a] = true
		addrs = append(addrs, a)
	}
	return census.NewSnapshot("x", month, addrs)
}

func churnSnapshot(rng *rand.Rand, s *census.Snapshot, month int, pDie float64) *census.Snapshot {
	present := make(map[netaddr.Addr]bool, len(s.Addrs))
	for _, a := range s.Addrs {
		present[a] = true
	}
	var addrs []netaddr.Addr
	for _, a := range s.Addrs {
		if rng.Float64() >= pDie {
			addrs = append(addrs, a)
		}
	}
	for births := int(pDie * float64(len(s.Addrs))); births > 0; {
		block := rng.Intn(600)
		a := netaddr.Addr(1<<28 + uint32(block)<<12 + uint32(rng.Intn(64)))
		if present[a] {
			continue
		}
		present[a] = true
		addrs = append(addrs, a)
		births--
	}
	return census.NewSnapshot("x", month, addrs)
}

// mustEqualSelections asserts byte-identity of two selections,
// including the full ranking and the derived partition.
func mustEqualSelections(t *testing.T, label string, got, want *Selection) {
	t.Helper()
	if got.K != want.K || got.SeedHosts != want.SeedHosts ||
		got.HostCoverage != want.HostCoverage || got.Space != want.Space ||
		got.SpaceShare != want.SpaceShare {
		t.Fatalf("%s: selection header diverged:\ngot  K=%d N=%d cov=%v space=%d share=%v\nwant K=%d N=%d cov=%v space=%d share=%v",
			label, got.K, got.SeedHosts, got.HostCoverage, got.Space, got.SpaceShare,
			want.K, want.SeedHosts, want.HostCoverage, want.Space, want.SpaceShare)
	}
	if len(got.Ranked) != len(want.Ranked) {
		t.Fatalf("%s: ranking length %d, want %d", label, len(got.Ranked), len(want.Ranked))
	}
	for i := range got.Ranked {
		if got.Ranked[i] != want.Ranked[i] {
			t.Fatalf("%s: rank %d diverged: got %+v, want %+v", label, i, got.Ranked[i], want.Ranked[i])
		}
	}
	if !slices.Equal(got.Partition().Prefixes(), want.Partition().Prefixes()) {
		t.Fatalf("%s: selected partitions diverge", label)
	}
}

// TestRankerMatchesFullRecompute is the core golden-equality property:
// a Ranker advanced by monthly deltas produces selections byte-identical
// to a full SelectCached on every month's snapshot, across seeds,
// worker counts, churn levels and option shapes.
func TestRankerMatchesFullRecompute(t *testing.T) {
	part := incPartition(t)
	grids := []Options{
		{Phi: 0.95},
		{Phi: 1},
		{Phi: 0.5, MinDensity: 1e-4},
		{Phi: 0.99, MaxPrefixes: 40},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 2, 8} {
			rng := rand.New(rand.NewSource(seed))
			snap := incSnapshot(rng, 0, 4000)
			r, err := NewRanker(snap, part, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			for month := 1; month <= 8; month++ {
				next := churnSnapshot(rng, snap, month, 0.02+0.1*rng.Float64())
				if err := r.Apply(snap.Diff(next)); err != nil {
					t.Fatalf("seed %d month %d: %v", seed, month, err)
				}
				snap = next
				if r.Total() != snap.CountIn(part) {
					t.Fatalf("seed %d month %d: total %d, want %d", seed, month, r.Total(), snap.CountIn(part))
				}
				for _, opts := range grids {
					inc, err := r.Select(opts)
					if err != nil {
						t.Fatal(err)
					}
					full, err := SelectCached(snap, part, opts, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualSelections(t, "incremental vs full", inc, full)
				}
			}
		}
	}
}

// TestRankerEmptyAndFullChurn covers the delta extremes: a no-op delta,
// total population replacement, and emptying the universe.
func TestRankerEmptyAndFullChurn(t *testing.T) {
	part := incPartition(t)
	rng := rand.New(rand.NewSource(4))
	snap := incSnapshot(rng, 0, 2000)
	r, err := NewRanker(snap, part, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Empty delta: nothing moves.
	if err := r.Apply(snap.Diff(census.NewSnapshot("x", 1, snap.Addrs))); err != nil {
		t.Fatal(err)
	}
	inc, err := r.Select(Options{Phi: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	full, err := SelectCached(snap, part, Options{Phi: 0.95}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSelections(t, "empty delta", inc, full)

	// Full churn: a disjoint population (every address moves within its
	// block, so the new population stays inside the universe).
	moved := make([]netaddr.Addr, 0, len(snap.Addrs))
	for _, a := range snap.Addrs {
		moved = append(moved, a+64)
	}
	next := census.NewSnapshot("x", 2, moved)
	if err := r.Apply(snap.Diff(next)); err != nil {
		t.Fatal(err)
	}
	inc, err = r.Select(Options{Phi: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	full, err = SelectCached(next, part, Options{Phi: 0.95}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSelections(t, "full churn", inc, full)

	// Everything dies: selection must fail like the full path does.
	if err := r.Apply(next.Diff(census.NewSnapshot("x", 3, nil))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Select(Options{Phi: 0.95}); err == nil {
		t.Fatal("empty universe selected without error")
	}
}

// TestRankerRejectsMismatchedDelta pins the defense against deltas that
// do not belong to the ranked snapshot.
func TestRankerRejectsMismatchedDelta(t *testing.T) {
	part := incPartition(t)
	rng := rand.New(rand.NewSource(5))
	snap := incSnapshot(rng, 0, 100)
	r, err := NewRanker(snap, part, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Kill more hosts in one prefix than it holds.
	p := part.Prefix(0)
	bogus := &census.Delta{Protocol: "x", FromMonth: 0, ToMonth: 1}
	for off := uint32(0); off < 64; off++ {
		bogus.Died = append(bogus.Died, p.First()+netaddr.Addr(off))
	}
	if err := r.Apply(bogus); err == nil {
		t.Fatal("mismatched delta applied without error")
	}
}
