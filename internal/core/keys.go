package core

import (
	"cmp"
	"math"
	"slices"

	"github.com/tass-scan/tass/internal/netaddr"
)

// The key codec: the only part of the ranking engine that knows the
// address family. A ranking holds one key per responsive prefix in
// ascending key order, and ascending key order is the ranking order:
// density descending, then host count descending (at equal density the
// shorter prefix holds more hosts), then prefix order. Both codecs
// decode hosts and density back out of the key, so materializing the
// ranking never reloads the count table.
//
//   - packed, for IPv4 universes below 2^25 prefixes: one uint64
//     (^v, len, index) with v = hosts<<len ≤ 2^32. Density
//     ρ = c/2^(32-len) = v/2^32 compares exactly as the integer v, so
//     ranking is integer compares and a radix sort.
//   - wide, for IPv6 and for larger IPv4 universes: the pair
//     (^Float64bits(ρ), len<<56 | index). ρ = c·2^(len-W) is exact and
//     positive, and positive floats order like their bit patterns.

// rankKeys is a ranking under one key codec.
type rankKeys[A netaddr.Key[A]] interface {
	// len returns the number of ranked prefixes.
	len() int
	// stage queues the key of universe prefix idx, bits long, holding
	// c > 0 hosts. Callers stage in ascending idx order.
	stage(idx int32, c, bits int)
	// commit sorts the staged keys and merges them into the ranking,
	// dropping every ranked key whose index is set in the displaced
	// bitmap.
	commit(displaced []uint64)
	// stats materializes the ranking over the universe's prefixes.
	stats(prefixes []netaddr.Pfx[A], total int) []StatOf[A]
	// top sets the universe indices of the first k ranked prefixes in
	// the bitmap bm.
	top(k int, bm []uint64)
}

// keysFor picks the codec for a universe of n prefixes of family A.
func keysFor[A netaddr.Key[A]](n int) rankKeys[A] {
	var z A
	if z.Width() == 32 && n < maxPackedPrefixes {
		return &packedKeys[A]{}
	}
	return &wideKeys[A]{w: z.Width()}
}

// packKey builds a packed key from v = hosts<<len, the prefix length
// and the universe index.
func packKey(v uint64, bits uint, idx int) uint64 {
	return (^v&(1<<33-1))<<31 | uint64(bits)<<25 | uint64(idx)
}

// maxPackedPrefixes bounds the universes the packed key can rank.
const maxPackedPrefixes = 1 << 25

// keyIndex recovers the tiebreak index of a packed ranking key.
func keyIndex(k uint64) int { return int(k & (maxPackedPrefixes - 1)) }

// packedKeys is the packed codec. It is generic only so it can fill
// StatOf[A]; keysFor hands it out for the 32-bit family alone.
type packedKeys[A netaddr.Key[A]] struct {
	keys    []uint64 // the ranking, ascending
	staged  []uint64
	scratch []uint64 // merge target and radix buffer, swapped with keys
}

func (p *packedKeys[A]) len() int { return len(p.keys) }

func (p *packedKeys[A]) stage(idx int32, c, bits int) {
	p.staged = append(p.staged, packKey(uint64(c)<<uint(bits), uint(bits), int(idx)))
}

func (p *packedKeys[A]) commit(displaced []uint64) {
	if len(p.keys) == 0 {
		// Nothing to merge with: the sorted batch is the ranking.
		p.scratch = sortPackedKeys(p.staged, p.scratch)
		p.keys, p.staged = p.staged, p.keys[:0]
		return
	}
	// The merge target holds at most every key; sized once here, it is
	// also the radix scratch (the batch never outnumbers it).
	if n := len(p.keys) + len(p.staged); cap(p.scratch) < n {
		p.scratch = make([]uint64, 0, n)
	}
	p.scratch = sortPackedKeys(p.staged, p.scratch)
	out := p.scratch[:0]
	j := 0
	for _, k := range p.keys {
		if idx := keyIndex(k); displaced[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		for j < len(p.staged) && p.staged[j] < k {
			out = append(out, p.staged[j])
			j++
		}
		out = append(out, k)
	}
	out = append(out, p.staged[j:]...)
	p.keys, p.scratch = out, p.keys
	p.staged = p.staged[:0]
}

func (p *packedKeys[A]) stats(prefixes []netaddr.Pfx[A], total int) []StatOf[A] {
	out := make([]StatOf[A], len(p.keys))
	totalF := float64(total)
	for j, k := range p.keys {
		v := ^(k >> 31) & (1<<33 - 1)
		c := int(v >> (k >> 25 & 0x3F))
		out[j] = StatOf[A]{
			Prefix:   prefixes[keyIndex(k)],
			Hosts:    c,
			Density:  float64(v) * 0x1p-32, // exact: v ≤ 2^32 and the scale is a power of two
			Coverage: float64(c) / totalF,
		}
	}
	return out
}

func (p *packedKeys[A]) top(k int, bm []uint64) {
	for _, key := range p.keys[:k] {
		idx := keyIndex(key)
		bm[idx>>6] |= 1 << (idx & 63)
	}
}

// wideKey is a wide-codec ranking key: hi is ^Float64bits(ρ), lo packs
// the prefix length above a 56-bit universe index.
type wideKey struct{ hi, lo uint64 }

func (a wideKey) compare(b wideKey) int {
	return cmp.Or(cmp.Compare(a.hi, b.hi), cmp.Compare(a.lo, b.lo))
}

func (a wideKey) index() int { return int(a.lo & (1<<56 - 1)) }

// wideKeys is the wide codec, for any family width w.
type wideKeys[A netaddr.Key[A]] struct {
	w                     int
	keys, staged, scratch []wideKey
}

func (p *wideKeys[A]) len() int { return len(p.keys) }

func (p *wideKeys[A]) stage(idx int32, c, bits int) {
	rho := math.Ldexp(float64(c), bits-p.w)
	p.staged = append(p.staged, wideKey{^math.Float64bits(rho), uint64(bits)<<56 | uint64(idx)})
}

func (p *wideKeys[A]) commit(displaced []uint64) {
	slices.SortFunc(p.staged, wideKey.compare)
	out := p.scratch[:0]
	j := 0
	for _, k := range p.keys {
		if idx := k.index(); displaced[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		for j < len(p.staged) && p.staged[j].compare(k) < 0 {
			out = append(out, p.staged[j])
			j++
		}
		out = append(out, k)
	}
	out = append(out, p.staged[j:]...)
	p.keys, p.scratch = out, p.keys
	p.staged = p.staged[:0]
}

func (p *wideKeys[A]) stats(prefixes []netaddr.Pfx[A], total int) []StatOf[A] {
	out := make([]StatOf[A], len(p.keys))
	for j, k := range p.keys {
		rho := math.Float64frombits(^k.hi)
		c := int(math.Ldexp(rho, p.w-int(k.lo>>56)))
		out[j] = StatOf[A]{
			Prefix:   prefixes[k.index()],
			Hosts:    c,
			Density:  rho,
			Coverage: float64(c) / float64(total),
		}
	}
	return out
}

func (p *wideKeys[A]) top(k int, bm []uint64) {
	for _, key := range p.keys[:k] {
		idx := key.index()
		bm[idx>>6] |= 1 << (idx & 63)
	}
}

// Radix repair of packed ranking keys. Every commit stages its keys in
// ascending tiebreak-index order, so the low 25 bits need no sorting: a
// stable LSD radix sort over the 39 bits above them (^v and the prefix
// length) leaves equal-density keys in index order, which is exactly
// the order slices.Sort gives the whole uint64.

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
