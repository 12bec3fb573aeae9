package core

import (
	"math/rand"
	"slices"
	"testing"
)

// indexOrderKeys draws n packed keys the way the ranking paths build
// them: ascending tiebreak indices (gaps allowed) starting at first,
// with densities and prefix lengths from gen.
func indexOrderKeys(rng *rand.Rand, n, first int, gen func() (v uint64, bits uint)) []uint64 {
	keys := make([]uint64, 0, n)
	idx := first
	for len(keys) < n {
		v, l := gen()
		keys = append(keys, packKey(v, l, idx))
		idx += 1 + rng.Intn(3)
		if idx >= maxPackedPrefixes {
			break
		}
	}
	return keys
}

// TestSortPackedKeysMatchesSlicesSort is the property test of the radix
// repair: on keys appended in index order it must produce exactly
// slices.Sort's order, at sizes on both sides of the cutoff, with random
// and all-equal densities, and with indices at the top of the 25-bit
// field.
func TestSortPackedKeysMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	random := func() (uint64, uint) {
		l := uint(8 + rng.Intn(25))
		c := uint64(1 + rng.Int63n(int64(1)<<(32-l)))
		return c << l, l
	}
	equal := func() (uint64, uint) { return 1 << 24, 24 }
	fewDensities := func() (uint64, uint) {
		l := uint(16 + rng.Intn(3))
		return uint64(1+rng.Intn(4)) << 20, l
	}
	full := func() (uint64, uint) { return 1 << 32, uint(rng.Intn(33)) } // v = 2^32: ^v's top bit clear
	sizes := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 70000}
	var buf []uint64
	for _, n := range sizes {
		for gi, gen := range []func() (uint64, uint){random, equal, fewDensities, full} {
			for _, first := range []int{0, maxPackedPrefixes - 3*n - 1} {
				if first < 0 {
					continue
				}
				keys := indexOrderKeys(rng, n, first, gen)
				want := slices.Clone(keys)
				slices.Sort(want)
				buf = sortPackedKeys(keys, buf)
				if !slices.Equal(keys, want) {
					t.Fatalf("n=%d gen=%d first=%d: radix order differs from slices.Sort", n, gi, first)
				}
			}
		}
	}
	if cap(buf) < 70000 {
		t.Fatalf("scratch not grown for reuse: cap %d", cap(buf))
	}
}

// TestSortPackedKeysIndexEdge pins the last index the 25-bit field
// holds: the sort must never let index bits reorder equal densities.
func TestSortPackedKeysIndexEdge(t *testing.T) {
	n := 2 * radixCutoff
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = packKey(1<<24, 24, maxPackedPrefixes-n+i)
	}
	keys[0] = packKey(1<<30, 24, maxPackedPrefixes-n) // densest prefix, lowest index
	want := slices.Clone(keys)
	slices.Sort(want)
	sortPackedKeys(keys, nil)
	if !slices.Equal(keys, want) {
		t.Fatal("radix order differs from slices.Sort at the 25-bit index edge")
	}
	if keyIndex(keys[n-1]) != maxPackedPrefixes-1 {
		t.Fatalf("last key index %d, want %d", keyIndex(keys[n-1]), maxPackedPrefixes-1)
	}
}
