package addrset

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
)

// refCounter is the binary-search range counter the cursor walk
// replaced, kept verbatim as the differential reference: it searches
// the decoded boundary block from scratch on every rank. It is only
// ever used for one range (refCount), the CountRange pattern, so its
// block hint cannot go stale.
type refCounter struct {
	s    *Set
	hint int
	bufI int
	buf  []netaddr.Addr
	err  error
}

func (c *refCounter) findBlock(a netaddr.Addr, strict bool) int {
	maxs := c.s.maxs
	nb := len(maxs)
	above := func(m netaddr.Addr) bool {
		if strict {
			return m.Compare(a) > 0
		}
		return m.Compare(a) >= 0
	}
	lo := c.hint
	if lo >= nb {
		return nb
	}
	if above(maxs[lo]) {
		return lo
	}
	step := 1
	hi := lo + step
	for hi < nb && !above(maxs[hi]) {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > nb {
		hi = nb
	}
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return above(maxs[lo+1+i]) })
}

func (c *refCounter) rank(a netaddr.Addr, incl bool) int {
	s := c.s
	bi := c.findBlock(a, incl)
	c.hint = bi
	if bi == len(s.mins) {
		return s.n
	}
	if a.Compare(s.mins[bi]) < 0 {
		return s.cum[bi]
	}
	if c.bufI != bi {
		dec, err := s.decodeBlock(bi, c.buf)
		if err != nil {
			if c.err == nil {
				c.err = err
			}
			dec = c.buf[:0]
		}
		c.buf = dec
		c.bufI = bi
	}
	var k int
	if incl {
		k = sort.Search(len(c.buf), func(i int) bool { return c.buf[i].Compare(a) > 0 })
	} else {
		k = sort.Search(len(c.buf), func(i int) bool { return c.buf[i].Compare(a) >= 0 })
	}
	return s.cum[bi] + k
}

// refCount counts [lo, hi] with a fresh reference counter.
func refCount(s *Set, lo, hi netaddr.Addr) (int, error) {
	if s.n == 0 || lo > hi {
		return 0, nil
	}
	c := &refCounter{s: s, bufI: -1}
	below := c.rank(lo, false)
	return c.rank(hi, true) - below, c.err
}

// bruteCount counts [lo, hi] over the plain sorted slice.
func bruteCount(addrs []netaddr.Addr, lo, hi netaddr.Addr) int {
	n := 0
	for _, a := range addrs {
		if a >= lo && a <= hi {
			n++
		}
	}
	return n
}

// dupRunAddrs returns a sorted multiset whose duplicate runs are long
// enough to span several blocks of size bsize.
func dupRunAddrs(rng *rand.Rand, n, bsize int) []netaddr.Addr {
	addrs := make([]netaddr.Addr, 0, n)
	v := uint32(rng.Intn(100))
	for len(addrs) < n {
		run := 1
		if rng.Intn(8) == 0 {
			run = 1 + rng.Intn(3*bsize) // spans up to three blocks
		}
		for k := 0; k < run && len(addrs) < n; k++ {
			addrs = append(addrs, netaddr.Addr(v))
		}
		v += 1 + uint32(rng.Intn(40))
	}
	return addrs
}

// ascendingRanges draws a query sequence that obeys the CounterOf rule
// (each lo >= the previous lo). With overlap set, ranges nest and
// overlap freely; otherwise they are disjoint and ascending, the
// partition shape.
func ascendingRanges(rng *rand.Rand, top netaddr.Addr, overlap bool) [][2]netaddr.Addr {
	var qs [][2]netaddr.Addr
	lo := netaddr.Addr(0)
	for lo <= top+50 {
		hi := lo + netaddr.Addr(rng.Intn(300))
		if overlap && rng.Intn(3) == 0 {
			hi = lo + netaddr.Addr(rng.Intn(3000)) // reaches past later los
		}
		qs = append(qs, [2]netaddr.Addr{lo, hi})
		if overlap {
			lo += netaddr.Addr(rng.Intn(60)) // may repeat lo, may stay below hi
		} else {
			lo = hi + 1 + netaddr.Addr(rng.Intn(60))
		}
	}
	return qs
}

// checkCounter runs qs through one cursor counter and compares every
// count with the binary-search reference (and, when exact is set, with
// a brute-force count over addrs).
func checkCounter(t *testing.T, name string, s *Set, addrs []netaddr.Addr, qs [][2]netaddr.Addr, exact bool) {
	t.Helper()
	c := s.Counter()
	for _, q := range qs {
		got := c.Count(q[0], q[1])
		want, _ := refCount(s, q[0], q[1])
		if got != want {
			t.Fatalf("%s: Count[%v,%v] = %d, reference %d", name, q[0], q[1], got, want)
		}
		if exact {
			if b := bruteCount(addrs, q[0], q[1]); got != b {
				t.Fatalf("%s: Count[%v,%v] = %d, brute force %d", name, q[0], q[1], got, b)
			}
		}
	}
}

// TestCounterCursorMatchesReference is the differential test of the
// in-block cursor: eager, lazy and uneven-block lazy backings,
// duplicate runs that span blocks, disjoint partitions and overlapping
// ranges that only satisfy "lo >= previous lo".
func TestCounterCursorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		bsize := []int{1, 2, 5, 64}[trial%4]
		addrs := dupRunAddrs(rng, 1+rng.Intn(2000), bsize)
		top := addrs[len(addrs)-1]
		eager := FromSorted(addrs, bsize)

		sets := []struct {
			name string
			s    *Set
		}{
			{"eager", eager},
			{"lazy", lazyTwin(t, eager, 2)},
			{"uneven", unevenLazy(t, rng, addrs, bsize)},
		}
		for _, st := range sets {
			for _, overlap := range []bool{false, true} {
				checkCounter(t, st.name, st.s, addrs, ascendingRanges(rng, top, overlap), true)
			}
		}
	}
}

// unevenLazy builds a lazy set over addrs whose blocks hold a random
// 1..bsize addresses each, the populations FromIndex accepts from a
// file: the cursor must not assume every block but the last is full.
func unevenLazy(t *testing.T, rng *rand.Rand, addrs []netaddr.Addr, bsize int) *Set {
	t.Helper()
	var mins, maxs []netaddr.Addr
	var counts, blens []int
	var payload []byte
	for rest := addrs; len(rest) > 0; {
		c := min(1+rng.Intn(bsize), len(rest))
		blk := rest[:c]
		rest = rest[c:]
		n := len(payload)
		for i := 1; i < c; i++ {
			payload = netaddr.AppendKeyUvarint(payload, netaddr.KeySub(blk[i], blk[i-1]))
		}
		mins = append(mins, blk[0])
		maxs = append(maxs, blk[c-1])
		counts = append(counts, c)
		blens = append(blens, len(payload)-n)
	}
	s, err := FromIndex(mins, maxs, counts, blens, bsize, Bytes(payload), 2)
	if err != nil {
		t.Fatalf("FromIndex: %v", err)
	}
	return s
}

// TestCounterCursorDamagedBlock checks the cursor against the reference
// on a lazy set with a damaged boundary block under Degrade: both count
// the damaged block as empty, and the counter reports the fault.
func TestCounterCursorDamagedBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	addrs := dupRunAddrs(rng, 3000, 16)
	eager := FromSorted(addrs, 16)
	for _, victim := range []int{0, eager.Blocks() / 2, eager.Blocks() - 2} {
		for eager.mins[victim] == eager.maxs[victim] || (victim > 0 && eager.maxs[victim-1] == eager.maxs[victim]) {
			victim++ // want a block whose max is a boundary no other block ends on
		}
		lazy := lazyTwin(t, eager, 1)
		data := append(Bytes(nil), eager.data...)
		// Change the first delta byte: every later address in the block
		// shifts (or the stream misparses), so the decoded max no longer
		// matches the index.
		if data[eager.offs[victim]] >= 0x7f {
			data[eager.offs[victim]] = 0
		} else {
			data[eager.offs[victim]]++
		}
		lazy.src = data
		lazy.SetFaultPolicy(Degrade)
		for _, overlap := range []bool{false, true} {
			qs := ascendingRanges(rng, addrs[len(addrs)-1], overlap)
			checkCounter(t, "damaged", lazy, addrs, qs, false)
		}
		top := eager.maxs[victim] // resolves to the damaged block itself
		c := lazy.Counter()
		c.Count(top, top)
		if c.Err() == nil {
			t.Fatalf("block %d: counter over a damaged block reports no fault", victim)
		}
		if _, err := refCount(lazy, top, top); err == nil {
			t.Fatalf("block %d: reference over a damaged block reports no fault", victim)
		}
	}
}

// TestCounterOverlapAcrossBlocks pins the rule on the shape a block
// hint taken from the previous hi gets wrong: a nested range whose lo
// lies in an earlier block than the enclosing range's hi.
func TestCounterOverlapAcrossBlocks(t *testing.T) {
	addrs := make([]netaddr.Addr, 128)
	for i := range addrs {
		addrs[i] = netaddr.Addr(i)
	}
	c := FromSorted(addrs, 64).Counter()
	if got := c.Count(10, 100); got != 91 {
		t.Fatalf("Count(10, 100) = %d, want 91", got)
	}
	if got := c.Count(20, 30); got != 11 {
		t.Fatalf("Count(20, 30) after Count(10, 100) = %d, want 11", got)
	}
	if got := c.Count(20, 127); got != 108 {
		t.Fatalf("Count(20, 127) = %d, want 108", got)
	}
}
