package census

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/tass-scan/tass/internal/netaddr"
)

func TestSortAddrsMatchesStdlib(t *testing.T) {
	f := func(vals []uint32) bool {
		a := make([]netaddr.Addr, len(vals))
		b := make([]netaddr.Addr, len(vals))
		for i, v := range vals {
			a[i] = netaddr.Addr(v)
			b[i] = netaddr.Addr(v)
		}
		SortAddrs(a)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSortAddrsLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]netaddr.Addr, 200000)
	for i := range a {
		a[i] = netaddr.Addr(rng.Uint32())
	}
	SortAddrs(a)
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("unsorted at %d", i)
		}
	}
}

func TestSortAddrsSmallAndEmpty(t *testing.T) {
	SortAddrs(nil)
	one := []netaddr.Addr{7}
	SortAddrs(one)
	small := []netaddr.Addr{5, 3, 9, 1, 1}
	SortAddrs(small)
	for i := 1; i < len(small); i++ {
		if small[i] < small[i-1] {
			t.Fatalf("small input unsorted: %v", small)
		}
	}
}

func TestDiff(t *testing.T) {
	earlier := NewSnapshot("ftp", 0, addrs("1.0.0.1", "2.0.0.2", "3.0.0.3"))
	later := NewSnapshot("ftp", 1, addrs("2.0.0.2", "3.0.0.3", "4.0.0.4", "5.0.0.5"))
	d := earlier.Diff(later).Result(earlier.Hosts())
	if d.Kept != 2 || d.Lost != 1 || d.New != 2 {
		t.Fatalf("Diff = %+v", d)
	}
	if r := d.Retention(); r < 0.66 || r > 0.67 {
		t.Errorf("Retention = %v", r)
	}
	none := NewSnapshot("x", 0, nil)
	empty := none.Diff(NewSnapshot("x", 1, nil)).Result(0)
	if empty.Retention() != 0 {
		t.Error("empty retention")
	}
}

func TestDiffSelfIsIdentity(t *testing.T) {
	f := func(vals []uint32) bool {
		raw := make([]netaddr.Addr, len(vals))
		for i, v := range vals {
			raw[i] = netaddr.Addr(v)
		}
		s := NewSnapshot("p", 0, raw)
		d := s.Diff(s).Result(s.Hosts())
		return d.Kept == s.Hosts() && d.Lost == 0 && d.New == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSortAddrsRadix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]netaddr.Addr, 1<<20)
	for i := range base {
		base[i] = netaddr.Addr(rng.Uint32())
	}
	work := make([]netaddr.Addr, len(base))
	b.SetBytes(int64(len(base) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		SortAddrs(work)
	}
}

// BenchmarkSortAddrsStdlib is the ablation partner of the radix sort:
// the comparison sort it replaces in snapshot construction.
func BenchmarkSortAddrsStdlib(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]netaddr.Addr, 1<<20)
	for i := range base {
		base[i] = netaddr.Addr(rng.Uint32())
	}
	work := make([]netaddr.Addr, len(base))
	b.SetBytes(int64(len(base) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, base)
		sort.Slice(work, func(x, y int) bool { return work[x] < work[y] })
	}
}
