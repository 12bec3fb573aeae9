package census

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// countShape sizes one random case of the counting kernels: a partition
// of up to prefixes prefixes of 2^0..2^maxK addresses each, with gaps
// and adjacent runs, and up to hosts addresses drawn over the covered
// span, its gaps and the space around it. top places the span at the
// top of the family's test window, so the last prefix can end on the
// window's highest address.
type countShape struct {
	prefixes, hosts, maxK int
	top                   bool
}

// keyAt places offset off in the family's test window: the whole IPv4
// space, or the low 64 bits of an IPv6 /64 under 2001:db8::/32.
func keyAt[A netaddr.Key[A]](off uint64) A {
	var z A
	return z.FromHalves(0x20010db800000000, off)
}

// windowTop is the size of the family's test window (0 for 2^64).
func windowTop[A netaddr.Key[A]]() uint64 {
	var z A
	if z.Width() == 32 {
		return 1 << 32
	}
	return 0
}

// randomCountCase draws a partition and a sorted, duplicate-free
// address list of shape sh. The addresses include every prefix's first
// and last address and the addresses just outside them.
func randomCountCase[A netaddr.Key[A]](t testing.TB, rng *rand.Rand, sh countShape) (rib.PartOf[A], []A) {
	t.Helper()
	var z A
	align := uint64(1) << sh.maxK
	type span struct {
		off uint64
		k   int
	}
	var spans []span
	cur := uint64(rng.Intn(3)) * align // room below the first prefix, or none
	for len(spans) < sh.prefixes {
		k := rng.Intn(sh.maxK + 1)
		size := uint64(1) << k
		cur = (cur + size - 1) &^ (size - 1)
		spans = append(spans, span{cur, k})
		cur += size
		if rng.Intn(3) > 0 { // else the next prefix is adjacent
			cur += uint64(rng.Int63n(int64(2 * align)))
		}
	}
	total := (cur + uint64(rng.Intn(2))*align + align - 1) &^ (align - 1)
	if total == 0 {
		total = align
	}
	base := uint64(0)
	if sh.top {
		base = windowTop[A]() - total
	}

	ps := make([]netaddr.Pfx[A], len(spans))
	for i, s := range spans {
		p, err := netaddr.PfxFrom(keyAt[A](base+s.off), z.Width()-s.k)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}

	offs := make([]uint64, 0, sh.hosts+4*len(spans))
	for i := 0; i < sh.hosts; i++ {
		offs = append(offs, uint64(rng.Int63n(int64(total))))
	}
	for _, s := range spans {
		last := s.off + 1<<s.k - 1
		offs = append(offs, s.off, last)
		if s.off > 0 {
			offs = append(offs, s.off-1)
		}
		if last+1 < total {
			offs = append(offs, last+1)
		}
	}
	addrs := make([]A, len(offs))
	for i, o := range offs {
		addrs[i] = keyAt[A](base + o)
	}
	return part, NewSnapshotOf("t", 0, addrs).Addrs
}

// naiveCounts is the per-address reference: each address is looked up
// on its own, by a binary search for the first prefix that does not end
// below it, and counted if that prefix contains it.
func naiveCounts[A netaddr.Key[A]](part rib.PartOf[A], addrs []A) (counts []int, outside int) {
	ps := part.Prefixes()
	counts = make([]int, len(ps))
	for _, a := range addrs {
		i := sort.Search(len(ps), func(i int) bool { return ps[i].Last().Compare(a) >= 0 })
		if i < len(ps) && ps[i].Contains(a) {
			counts[i]++
		} else {
			outside++
		}
	}
	return counts, outside
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// lazyOf returns a lazy snapshot over addrs whose set is built in memory
// with the given block size: the counting paths cannot tell it from a
// file-backed one.
func lazyOf[A netaddr.Key[A]](addrs []A, blockSize int) *SnapshotOf[A] {
	return &SnapshotOf[A]{Protocol: "t", set: addrset.FromSorted(addrs, blockSize), lazy: true}
}

// checkCountKernels compares every counting entry point on (part,
// addrs) against naiveCounts: CountIn, CountByPrefix and
// CountByPrefixSharded at 1, 2 and 8 workers on the eager snapshot and
// on each given lazy one, and CountAddrsSharded for IPv4.
func checkCountKernels[A netaddr.Key[A]](t *testing.T, part rib.PartOf[A], addrs []A, lazies ...*SnapshotOf[A]) {
	t.Helper()
	wantCounts, wantOutside := naiveCounts(part, addrs)
	wantIn := sum(wantCounts)
	eager := NewSnapshotSorted("t", 0, addrs)
	check := func(name string, counts []int, outside int) {
		t.Helper()
		if outside != wantOutside || !slices.Equal(counts, wantCounts) {
			t.Fatalf("%s: outside %d counts %v, want outside %d counts %v", name, outside, counts, wantOutside, wantCounts)
		}
	}
	for i, s := range append([]*SnapshotOf[A]{eager}, lazies...) {
		side := "eager"
		if i > 0 {
			side = fmt.Sprintf("lazy%d", i)
		}
		if got := s.CountIn(part); got != wantIn {
			t.Fatalf("%s CountIn = %d, want %d", side, got, wantIn)
		}
		c, o := s.CountByPrefix(part)
		check(side+" CountByPrefix", c, o)
		for _, w := range []int{1, 2, 8} {
			c, o := s.CountByPrefixSharded(part, w)
			check(fmt.Sprintf("%s CountByPrefixSharded(%d)", side, w), c, o)
		}
	}
	if a4, ok := any(addrs).([]netaddr.Addr); ok {
		p4 := any(part).(rib.Partition)
		for _, w := range []int{1, 2, 8} {
			c, o := CountAddrsSharded(a4, p4, w)
			check(fmt.Sprintf("CountAddrsSharded(%d)", w), c, o)
		}
	}
}

// countShapes are the differential test's cases. The named sparseFor
// side is asserted, so CountIn and CountByPrefix take both of their
// eager paths; "sharded" is large enough for CountAddrsSharded and the
// lazy sharded count to split their work.
var countShapes = []struct {
	name   string
	shape  countShape
	sparse bool
}{
	{"sparse", countShape{prefixes: 3, hosts: 3000, maxK: 10}, true},
	{"sparse-top", countShape{prefixes: 2, hosts: 2500, maxK: 12, top: true}, true},
	{"dense", countShape{prefixes: 300, hosts: 2000, maxK: 6}, false},
	{"dense-top", countShape{prefixes: 200, hosts: 1500, maxK: 4, top: true}, false},
	{"host-prefixes", countShape{prefixes: 400, hosts: 300, maxK: 0}, false},
	{"sharded", countShape{prefixes: 4500, hosts: 4000, maxK: 3}, false},
}

func testCountKernelsMatchNaive[A netaddr.Key[A]](t *testing.T) {
	for _, tc := range countShapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				part, addrs := randomCountCase[A](t, rng, tc.shape)
				if got := sparseFor(part.Len(), len(addrs)); got != tc.sparse {
					t.Fatalf("sparseFor(%d prefixes, %d addrs) = %v, want %v", part.Len(), len(addrs), got, tc.sparse)
				}
				// A file-backed lazy snapshot at small blocks, so prefixes
				// straddle many block boundaries, and one at the default.
				small := NewSnapshotSorted("t", 0, addrs)
				small.set = addrset.FromSorted(addrs, 4)
				path := filepath.Join(t.TempDir(), "c.snap")
				if err := WriteSnapshotFileOf(path, small); err != nil {
					t.Fatal(err)
				}
				file, err := OpenSnapshotFileOf[A](path, 8)
				if err != nil {
					t.Fatal(err)
				}
				defer file.Close()
				checkCountKernels(t, part, addrs, file, lazyOf(addrs, 0))
			})
		}
	}
	t.Run("empty-partition", func(t *testing.T) {
		_, addrs := randomCountCase[A](t, rand.New(rand.NewSource(7)), countShape{prefixes: 5, hosts: 200, maxK: 8})
		checkCountKernels(t, rib.PartOf[A]{}, addrs, lazyOf(addrs, 0))
	})
	t.Run("no-addresses", func(t *testing.T) {
		part, _ := randomCountCase[A](t, rand.New(rand.NewSource(8)), countShape{prefixes: 50, maxK: 8})
		checkCountKernels(t, part, nil, lazyOf[A](nil, 0))
	})
}

// TestCountKernelsMatchNaive is the differential test of the counting
// kernels: every entry point, on both sides of sparseFor and on eager,
// file-backed lazy and in-memory lazy snapshots, must equal a naive
// per-address count, for both families.
func TestCountKernelsMatchNaive(t *testing.T) {
	t.Run("ipv4", testCountKernelsMatchNaive[netaddr.Addr])
	t.Run("ipv6", testCountKernelsMatchNaive[netaddr.Addr6])
}

// FuzzCountIn runs the differential property of TestCountKernelsMatchNaive
// over fuzzed shapes and seeds, for both families, with the lazy
// snapshot's block size fuzzed too.
func FuzzCountIn(f *testing.F) {
	f.Add(int64(1), uint16(3), uint16(3000), uint8(10), uint8(0))
	f.Add(int64(2), uint16(300), uint16(2000), uint8(6), uint8(1))
	f.Add(int64(3), uint16(0), uint16(100), uint8(4), uint8(2))
	f.Add(int64(4), uint16(40), uint16(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, prefixes, hosts uint16, maxK, flags uint8) {
		sh := countShape{
			prefixes: int(prefixes % 1200),
			hosts:    int(hosts % 5000),
			maxK:     int(maxK % 16),
			top:      flags&1 != 0,
		}
		blockSize := 4 << ((flags >> 1) % 5) // 4..64
		rng := rand.New(rand.NewSource(seed))
		p4, a4 := randomCountCase[netaddr.Addr](t, rng, sh)
		checkCountKernels(t, p4, a4, lazyOf(a4, blockSize))
		p6, a6 := randomCountCase[netaddr.Addr6](t, rng, sh)
		checkCountKernels(t, p6, a6, lazyOf(a6, blockSize))
	})
}
