package addrset

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
)

// lazyTwin rebuilds an eager set as a lazy one over the same payload
// bytes: identical index, Bytes source, given cache cap.
func lazyTwin(t *testing.T, s *Set, cacheCap int) *Set {
	t.Helper()
	nb := s.Blocks()
	counts := make([]int, nb)
	blens := make([]int, nb)
	for i := 0; i < nb; i++ {
		counts[i] = s.blockLen(i)
		end := len(s.data)
		if i+1 < nb {
			end = s.offs[i+1]
		}
		blens[i] = end - s.offs[i]
	}
	lazy, err := FromIndex(
		append([]netaddr.Addr(nil), s.mins...),
		append([]netaddr.Addr(nil), s.maxs...),
		counts, blens, s.bsize, Bytes(s.data), cacheCap)
	if err != nil {
		t.Fatalf("FromIndex: %v", err)
	}
	return lazy
}

func randomAddrs(rng *rand.Rand, n int) []netaddr.Addr {
	addrs := make([]netaddr.Addr, n)
	v := uint32(rng.Intn(1000))
	for i := range addrs {
		addrs[i] = netaddr.Addr(v)
		v += uint32(rng.Intn(5000)) // gaps of 0 (duplicates) to 4999
	}
	return addrs
}

func TestLazyEqualsEager(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		addrs := randomAddrs(rng, 1+rng.Intn(3000))
		eager := FromSorted(addrs, 0)
		for _, cap := range []int{1, 3, 0} {
			lazy := lazyTwin(t, eager, cap)
			if !lazy.Lazy() || eager.Lazy() {
				t.Fatal("Lazy() misreports backing")
			}
			if lazy.Len() != eager.Len() || lazy.Blocks() != eager.Blocks() {
				t.Fatalf("shape mismatch: %d/%d vs %d/%d",
					lazy.Len(), lazy.Blocks(), eager.Len(), eager.Blocks())
			}
			if got, want := lazy.AppendTo(nil), eager.AppendTo(nil); len(got) != len(want) {
				t.Fatalf("AppendTo length %d want %d", len(got), len(want))
			} else {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("AppendTo[%d] = %v want %v", i, got[i], want[i])
					}
				}
			}
			ce, cl := eager.Counter(), lazy.Counter()
			lo := netaddr.Addr(0)
			for lo < addrs[len(addrs)-1] {
				hi := lo + netaddr.Addr(rng.Intn(1<<14))
				if ge, gl := ce.Count(lo, hi), cl.Count(lo, hi); ge != gl {
					t.Fatalf("Count[%v,%v] eager=%d lazy=%d (cap %d)", lo, hi, ge, gl, cap)
				}
				lo = hi + 1 + netaddr.Addr(rng.Intn(1<<12))
			}
			for i := 0; i < 200; i++ {
				a := netaddr.Addr(rng.Intn(int(addrs[len(addrs)-1]) + 10))
				if eager.Contains(a) != lazy.Contains(a) {
					t.Fatalf("Contains(%v) disagrees", a)
				}
			}
			if ge, gl := eager.IntersectCount(eager), lazy.IntersectCount(eager); ge != gl {
				t.Fatalf("IntersectCount eager=%d lazy=%d", ge, gl)
			}
		}
	}
}

// TestLazySingleflight faults the same cold block from 8 goroutines and
// checks it decodes exactly once. Run under -race in CI.
func TestLazySingleflight(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	addrs := randomAddrs(rng, 64) // exactly one default-size block
	eager := FromSorted(addrs, 0)
	lazy := lazyTwin(t, eager, 8)
	want := eager.CountRange(addrs[0], addrs[len(addrs)-1])

	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < 8; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if got := lazy.CountRange(addrs[0], addrs[len(addrs)-1]); got != want {
				t.Errorf("CountRange = %d want %d", got, want)
			}
		}()
	}
	start.Done()
	done.Wait()
	if n := lazy.Decodes(); n != 1 {
		t.Fatalf("cold block decoded %d times, want 1 (singleflight)", n)
	}
	if n := lazy.ResidentBlocks(); n != 1 {
		t.Fatalf("ResidentBlocks = %d want 1", n)
	}
}

// TestLazyLRUEvictionUnderRead hammers a tiny cache from concurrent
// readers: counts must stay exact while blocks are evicted and
// re-faulted under their feet, and residency must respect the cap.
func TestLazyLRUEvictionUnderRead(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	addrs := randomAddrs(rng, 64*32) // 32 blocks
	eager := FromSorted(addrs, 0)
	lazy := lazyTwin(t, eager, 2) // thrashes constantly

	type rangeCase struct {
		lo, hi netaddr.Addr
		want   int
	}
	cases := make([]rangeCase, 64)
	for i := range cases {
		lo := addrs[rng.Intn(len(addrs))]
		hi := lo + netaddr.Addr(rng.Intn(1<<16))
		cases[i] = rangeCase{lo, hi, eager.CountRange(lo, hi)}
	}

	var done sync.WaitGroup
	for g := 0; g < 8; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			for rep := 0; rep < 20; rep++ {
				for i, c := range cases {
					if got := lazy.CountRange(c.lo, c.hi); got != c.want {
						t.Errorf("g%d case %d: CountRange = %d want %d", g, i, got, c.want)
						return
					}
				}
			}
		}(g)
	}
	done.Wait()
	if n := lazy.ResidentBlocks(); n > 2 {
		t.Fatalf("ResidentBlocks = %d exceeds cap 2", n)
	}
	if lazy.Decodes() <= 32 {
		t.Logf("decodes = %d (no eviction pressure?)", lazy.Decodes())
	}
}

func TestFromIndexValidation(t *testing.T) {
	mk := func() ([]netaddr.Addr, []netaddr.Addr, []int, []int, BlockSource) {
		// Two valid blocks: {10, 11} and {20}.
		return []netaddr.Addr{10, 20}, []netaddr.Addr{11, 20},
			[]int{2, 1}, []int{1, 0}, Bytes([]byte{0x01})
	}

	mins, maxs, counts, blens, src := mk()
	if _, err := FromIndex(mins, maxs, counts, blens, 64, src, 0); err != nil {
		t.Fatalf("valid index rejected: %v", err)
	}

	mins, maxs, counts, blens, src = mk()
	counts[0] = 0
	if _, err := FromIndex(mins, maxs, counts, blens, 64, src, 0); err == nil {
		t.Fatal("zero-count block accepted")
	}

	mins, maxs, counts, blens, src = mk()
	counts[0] = 65
	if _, err := FromIndex(mins, maxs, counts, blens, 64, src, 0); err == nil {
		t.Fatal("over-populated block accepted")
	}

	mins, maxs, counts, blens, src = mk()
	blens[0] = 0
	if _, err := FromIndex(mins, maxs, counts, blens, 64, src, 0); err == nil {
		t.Fatal("impossible byte length accepted")
	}

	mins, maxs, counts, blens, src = mk()
	mins[1] = 5 // below previous max
	if _, err := FromIndex(mins, maxs, counts, blens, 64, src, 0); err == nil {
		t.Fatal("unsorted blocks accepted")
	}

	mins, maxs, counts, blens, _ = mk()
	if _, err := FromIndex(mins, maxs, counts, blens, 64, Bytes([]byte{0x01, 0x02}), 0); err == nil {
		t.Fatal("payload size mismatch accepted")
	}

	mins, maxs, counts, _, src = mk()
	if _, err := FromIndex(mins, maxs, counts, []int{1}, 64, src, 0); err == nil {
		t.Fatal("short blens accepted")
	}
}
