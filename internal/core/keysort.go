package core

import "slices"

// Radix repair of packed ranking keys. Every producer of packed keys
// (RankCached, NewRanker, Ranker.Apply) appends them in ascending
// tiebreak-index order, so the low 25 bits need no sorting: a stable
// LSD radix sort over the 39 bits above them (^v and the prefix length)
// leaves equal-density keys in index order, which is exactly the order
// slices.Sort gives the whole uint64.

const (
	radixBits   = 8
	radixPasses = 5 // 5·8 ≥ 39 key bits above the index
	// radixCutoff is the input size below which slices.Sort is cheaper
	// than the counting passes.
	radixCutoff = 256
)

// sortPackedKeys sorts keys, which must have been appended in ascending
// tiebreak-index order, into ascending order in place. buf is the
// scatter scratch; it is returned, grown to len(keys) when it was
// shorter, for the caller to keep reusing.
func sortPackedKeys(keys, buf []uint64) []uint64 {
	n := len(keys)
	if n < radixCutoff {
		slices.Sort(keys)
		return buf
	}
	if cap(buf) < n {
		buf = make([]uint64, n)
	}
	buf = buf[:n]
	// One read pass builds every digit's histogram. Key counts stay
	// below maxPackedPrefixes, so uint32 buckets cannot overflow.
	var counts [radixPasses][1 << radixBits]uint32
	for _, k := range keys {
		x := k >> 25
		for p := range counts {
			counts[p][x>>(p*radixBits)&(1<<radixBits-1)]++
		}
	}
	src, dst := keys, buf
	for p := range counts {
		shift := 25 + p*radixBits
		c := &counts[p]
		if c[src[0]>>shift&(1<<radixBits-1)] == uint32(n) {
			continue // every key shares this digit: the pass is the identity
		}
		var sum uint32
		for d, m := range c {
			c[d] = sum
			sum += m
		}
		for _, k := range src {
			d := k >> shift & (1<<radixBits - 1)
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	return buf
}
