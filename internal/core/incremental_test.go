package core

import (
	"math/rand"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// incPartitionOf builds a universe of 512 prefixes of length W-12 (a
// /20 for IPv4) with mixed-length holes: enough prefixes that rankings
// have real structure, small enough that the test stays quick.
func incPartitionOf[A netaddr.Key[A]](t testing.TB) rib.PartOf[A] {
	t.Helper()
	var z A
	hi, _ := familyBase[A]()
	ps := make([]netaddr.Pfx[A], 0, 512)
	for i := 0; i < 512; i++ {
		bits := z.Width() - 12
		if i%7 == 0 {
			bits += 2 // a sprinkle of longer prefixes for tie shapes
		}
		ps = append(ps, netaddr.MustPfxFrom(z.FromHalves(hi, 1<<28+uint64(i)<<12), bits))
	}
	p, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func incPartition(t testing.TB) rib.Partition { return incPartitionOf[netaddr.Addr](t) }

// incAddr returns address off of block block in incPartitionOf's
// layout; blocks past 511 fall outside the universe.
func incAddr[A netaddr.Key[A]](block, off int) A {
	var z A
	hi, _ := familyBase[A]()
	return z.FromHalves(hi, 1<<28+uint64(block)<<12+uint64(off))
}

func incSnapshotOf[A netaddr.Key[A]](rng *rand.Rand, month, n int) *census.SnapshotOf[A] {
	seen := make(map[A]bool, n)
	addrs := make([]A, 0, n)
	for len(addrs) < n {
		// Concentrate on a few prefixes so densities vary and ties occur.
		a := incAddr[A](rng.Intn(600), rng.Intn(64)) // some addresses fall outside the partition
		if seen[a] {
			continue
		}
		seen[a] = true
		addrs = append(addrs, a)
	}
	return census.NewSnapshotOf("x", month, addrs)
}

func incSnapshot(rng *rand.Rand, month, n int) *census.Snapshot {
	return incSnapshotOf[netaddr.Addr](rng, month, n)
}

func churnSnapshot[A netaddr.Key[A]](rng *rand.Rand, s *census.SnapshotOf[A], month int, pDie float64) *census.SnapshotOf[A] {
	present := make(map[A]bool, len(s.Addrs))
	for _, a := range s.Addrs {
		present[a] = true
	}
	var addrs []A
	for _, a := range s.Addrs {
		if rng.Float64() >= pDie {
			addrs = append(addrs, a)
		}
	}
	for births := int(pDie * float64(len(s.Addrs))); births > 0; {
		a := incAddr[A](rng.Intn(600), rng.Intn(64))
		if present[a] {
			continue
		}
		present[a] = true
		addrs = append(addrs, a)
		births--
	}
	return census.NewSnapshotOf("x", month, addrs)
}

// TestRankerMatchesFullRecompute is the core golden-equality property:
// a Ranker advanced by monthly deltas produces selections byte-identical
// to a full SelectCached on every month's snapshot, across seeds,
// worker counts, churn levels, option shapes and both families.
func TestRankerMatchesFullRecompute(t *testing.T) {
	t.Run("ipv4", rankerMatchesFullRecompute[netaddr.Addr])
	t.Run("ipv6", rankerMatchesFullRecompute[netaddr.Addr6])
}

func rankerMatchesFullRecompute[A netaddr.Key[A]](t *testing.T) {
	part := incPartitionOf[A](t)
	grids := []Options{
		{Phi: 0.95},
		{Phi: 1},
		{Phi: 0.5, MinDensity: 1e-4},
		{Phi: 0.99, MaxPrefixes: 40},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 2, 8} {
			rng := rand.New(rand.NewSource(seed))
			snap := incSnapshotOf[A](rng, 0, 4000)
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
