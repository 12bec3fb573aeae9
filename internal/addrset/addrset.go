// Package addrset provides an immutable, block-indexed sorted address
// set: the counting core every TASS operation reduces to. It is generic
// over the address family (SetOf); Set is the IPv4 instantiation.
//
// Addresses are delta-encoded (LEB128 uvarint) into fixed-population
// blocks; a per-block skip index of [min, max, cumulativeCount] triples
// makes range counting O(log B + blocksize) instead of the O(N) touch-
// every-address merge walk, and lets set intersection gallop past runs
// that cannot match. The layout is the same delta stream the census
// binary codec uses on the wire, so an indexed census file serves its
// blocks as they lie on disk (FromIndex) without materializing an
// address slice.
//
// Families up to 64 bits encode deltas with encoding/binary's uvarint;
// the 128-bit family extends the same LEB128 scheme to at most 19 bytes
// per delta (netaddr.AppendKeyUvarint), so the byte layout of IPv4 sets
// is unchanged by the generalization and IPv6 gaps wider than 2^64 —
// routine when a set spans distant /32s — still round-trip exactly.
//
// A Set is immutable after construction and safe for concurrent use.
package addrset

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"github.com/tass-scan/tass/internal/lru"
	"github.com/tass-scan/tass/internal/netaddr"
)

// DefaultBlockSize is the per-block address population used when a
// Builder or FromSorted is given a zero block size. Range counting
// decodes at most the two boundary blocks per range, so a smaller
// block cheapens every count; 64 keeps the boundary work near one
// cache line of varint bytes while the skip index stays under half a
// byte per address.
const DefaultBlockSize = 64

// SetOf is an immutable block-indexed sorted set of addresses of
// family A. The zero value is an empty set.
type SetOf[A netaddr.Key[A]] struct {
	n     int // total addresses
	bsize int // addresses per block (last block may hold fewer)

	// Skip index, one entry per block.
	mins []A   // first address of block i
	maxs []A   // last address of block i
	offs []int // byte offset of block i's delta stream in data
	cum  []int // addresses before block i; len = blocks+1, cum[blocks] = n

	// data holds, per block, count(i)-1 uvarint deltas: the block's
	// first address lives in mins[i], each delta adds to the previous
	// address. Deltas may be 0 — duplicates are kept (multiset
	// semantics, matching the merge walk) — so blocks are ascending
	// but not necessarily strictly.
	data []byte

	// Lazy backing (see source.go). When src is non-nil the payload is
	// not in data: block bi's stream is src.Bytes(offs[bi], blens[bi]),
	// fetched and decoded on first touch through cache (an LRU with
	// single-flight faulting), keyed by block index.
	src   BlockSource
	blens []int // per-block encoded byte length; nil unless src-backed
	cache *lru.Cache[int, []A]

	// Storage-fault state (see source.go): policy selects FailFast or
	// Degrade, faults records each damaged block once. The set stays
	// logically immutable — fault state is bookkeeping about the
	// backing storage, mutated under faultMu so concurrent readers can
	// record faults safely.
	policy    FaultPolicy
	faultMu   sync.Mutex
	faults    []BlockError
	faultSeen map[int]bool
}

// Set is the IPv4 instantiation of SetOf.
type Set = SetOf[netaddr.Addr]

// narrow reports whether the family fits 64 bits, which selects the
// encoding/binary uvarint fast paths over the 128-bit LEB128 codec.
func narrow[A netaddr.Key[A]]() bool {
	var z A
	return z.Width() <= 64
}

// lo64 returns the low half of a; only meaningful for narrow families.
func lo64[A netaddr.Key[A]](a A) uint64 {
	_, lo := a.Halves()
	return lo
}

// blockStream returns block bi's delta stream: the source's extent on a
// lazy set, the contiguous payload from the block's offset otherwise.
// The stream holds blockLen(bi)-1 uvarint deltas (possibly followed by
// other blocks' bytes — decoders count, they do not measure). untrusted
// reports whether the bytes came from an external BlockSource, whose
// contents may have rotted since the index was verified — decoders of
// untrusted streams validate the result against the skip index. A
// source read failure returns the error.
func (s *SetOf[A]) blockStream(bi int) (stream []byte, untrusted bool, err error) {
	if s.src != nil {
		b, err := s.src.Bytes(s.offs[bi], s.blens[bi])
		return b, true, err
	}
	return s.data[s.offs[bi]:], false, nil
}

// FromSorted builds a Set from an ascending address slice. Duplicates
// are kept: the set mirrors the multiset counting semantics of the
// merge walk, so counts agree on any sorted input (census snapshots are
// duplicate-free anyway). blockSize 0 means DefaultBlockSize. It panics
// on unsorted input; use a Builder when the input needs validation.
func FromSorted[A netaddr.Key[A]](addrs []A, blockSize int) *SetOf[A] {
	b := NewBuilderOf[A](blockSize, len(addrs))
	for _, a := range addrs {
		if err := b.Append(a); err != nil {
			panic(fmt.Sprintf("addrset: FromSorted: %v", err))
		}
	}
	return b.Finish()
}

// Len returns the number of addresses in the set.
func (s *SetOf[A]) Len() int { return s.n }

// BlockSize returns the per-block address population.
func (s *SetOf[A]) BlockSize() int { return s.bsize }

// Blocks returns the number of index blocks.
func (s *SetOf[A]) Blocks() int { return len(s.mins) }

// Bytes returns the memory footprint of the compressed payload (the
// delta stream, excluding the skip index). For a lazy set this is the
// source's payload size — bytes addressable, not bytes resident.
func (s *SetOf[A]) Bytes() int {
	if s.src != nil {
		return s.src.Size()
	}
	return len(s.data)
}

// Min returns the smallest address; ok is false for an empty set.
func (s *SetOf[A]) Min() (A, bool) {
	if s.n == 0 {
		var z A
		return z, false
	}
	return s.mins[0], true
}

// Max returns the largest address; ok is false for an empty set.
func (s *SetOf[A]) Max() (A, bool) {
	if s.n == 0 {
		var z A
		return z, false
	}
	return s.maxs[len(s.maxs)-1], true
}

// blockLen returns the number of addresses in block bi.
func (s *SetOf[A]) blockLen(bi int) int { return s.cum[bi+1] - s.cum[bi] }

// decodeBlock returns the addresses of block bi. On an eager set it
// decodes into buf (reused across calls when cap allows); on a lazy set
// it returns the cache's shared, immutable decoded slice — callers must
// treat the result as read-only either way. A failed read or decode is
// recorded on the set (once per block) and returned as a *BlockError.
func (s *SetOf[A]) decodeBlock(bi int, buf []A) ([]A, error) {
	var addrs []A
	var err error
	if s.cache != nil {
		// A cold block decodes once per residency, however many readers
		// fault it at once; a failed decode is not cached, so a
		// transient read fault heals on the next touch.
		addrs, err = s.cache.Get(bi, func() ([]A, error) {
			return s.decodeBlockInto(bi, make([]A, 0, s.blockLen(bi)))
		})
	} else {
		addrs, err = s.decodeBlockInto(bi, buf)
	}
	if err != nil {
		if be, ok := err.(*BlockError); ok {
			s.recordFault(be)
		}
		return nil, err
	}
	return addrs, nil
}

// decodeBlockInto appends the addresses of block bi to buf[:0] and
// returns it, bypassing the lazy cache (the cache itself decodes
// through here). Streams served by an external BlockSource are
// validated against the trusted skip index after decoding — population
// and last address must match — so silent payload corruption that
// still parses as varints is caught here instead of flowing into
// counts. Failures come back as a *BlockError naming the block and its
// byte extent.
func (s *SetOf[A]) decodeBlockInto(bi int, buf []A) ([]A, error) {
	buf = buf[:0]
	v := s.mins[bi]
	buf = append(buf, v)
	stream, untrusted, err := s.blockStream(bi)
	if err != nil {
		return nil, s.blockError(bi, err)
	}
	if narrow[A]() {
		// Fast path: batch varint kernel with 64-bit accumulation.
		out, ok := appendAccum(buf, stream, s.blockLen(bi)-1, lo64(v))
		if !ok {
			return nil, s.blockError(bi, fmt.Errorf("stream truncated or malformed"))
		}
		buf = out
	} else {
		pos := 0
		for k := 1; k < s.blockLen(bi); k++ {
			d, n := netaddr.DecodeKeyUvarint[A](stream[pos:])
			if n <= 0 || pos+n > len(stream) {
				return nil, s.blockError(bi, fmt.Errorf("stream truncated or malformed at delta %d", k))
			}
			pos += n
			v = netaddr.KeyAdd(v, d)
			buf = append(buf, v)
		}
	}
	if untrusted {
		if last := buf[len(buf)-1]; last != s.maxs[bi] {
			return nil, s.blockError(bi, fmt.Errorf("decodes to max %v, index says %v", last, s.maxs[bi]))
		}
	}
	return buf, nil
}

// blockError wraps a block failure in a *BlockError carrying the
// block's byte extent (zero extent for in-core blocks).
func (s *SetOf[A]) blockError(bi int, err error) *BlockError {
	be := &BlockError{Block: bi, Err: err}
	if s.blens != nil {
		be.Off, be.Len = s.offs[bi], s.blens[bi]
	}
	return be
}

// Walk calls yield for every address in ascending order until yield
// returns false. On a lazy set, blocks whose payload cannot be read or
// decoded are skipped — the fault is recorded (see Faults) and the walk
// continues with the next block; check ReadErr afterwards to surface
// faults under the FailFast policy.
func (s *SetOf[A]) Walk(yield func(A) bool) {
	if s.src != nil {
		// Lazy: decode through the cache, which checks untrusted
		// streams against the index and records faults.
		for bi := range s.mins {
			for _, a := range s.readBlock(bi, nil) {
				if !yield(a) {
					return
				}
			}
		}
		return
	}
	for bi := range s.mins {
		v := s.mins[bi]
		if !yield(v) {
			return
		}
		stream, _, _ := s.blockStream(bi)
		pos := 0
		for k := 1; k < s.blockLen(bi); k++ {
			d, n := netaddr.DecodeKeyUvarint[A](stream[pos:])
			pos += n
			v = netaddr.KeyAdd(v, d)
			if !yield(v) {
				return
			}
		}
	}
}

// WalkBlocks calls yield once per index block, in order, with the
// block's index and either its decoded addresses or the error that made
// it undecodable (addrs is nil exactly when err is non-nil), until
// yield returns false. It is the scrubber's primitive: unlike Walk it
// hands damage to the caller block by block instead of silently
// skipping, so a repair pass can re-derive the intact blocks and
// quarantine the rest. The addrs slice is only valid until the next
// yield.
func (s *SetOf[A]) WalkBlocks(yield func(bi int, addrs []A, err error) bool) {
	var buf []A
	for bi := range s.mins {
		addrs, err := s.decodeBlock(bi, buf)
		if err != nil {
			if !yield(bi, nil, err) {
				return
			}
			continue
		}
		if s.cache == nil {
			buf = addrs
		}
		if !yield(bi, addrs, nil) {
			return
		}
	}
}

// AppendTo appends every address in ascending order to dst and returns
// the extended slice.
func (s *SetOf[A]) AppendTo(dst []A) []A {
	if cap(dst)-len(dst) < s.n {
		grown := make([]A, len(dst), len(dst)+s.n)
		copy(grown, dst)
		dst = grown
	}
	s.Walk(func(a A) bool {
		dst = append(dst, a)
		return true
	})
	return dst
}

// Contains reports whether a is in the set. On a lazy set a damaged
// block reads as absent (the fault is recorded; see Faults/ReadErr).
func (s *SetOf[A]) Contains(a A) bool {
	// Rightmost block whose min is <= a.
	bi := sort.Search(len(s.mins), func(i int) bool { return s.mins[i].Compare(a) > 0 }) - 1
	if bi < 0 || a.Compare(s.maxs[bi]) > 0 {
		return false
	}
	v := s.mins[bi]
	if v == a {
		return true
	}
	if s.src != nil {
		buf := s.readBlock(bi, nil)
		k := sort.Search(len(buf), func(i int) bool { return buf[i].Compare(a) >= 0 })
		return k < len(buf) && buf[k] == a
	}
	stream, _, _ := s.blockStream(bi)
	pos := 0
	for k := 1; k < s.blockLen(bi); k++ {
		d, n := netaddr.DecodeKeyUvarint[A](stream[pos:])
		pos += n
		v = netaddr.KeyAdd(v, d)
		if v.Compare(a) >= 0 {
			return v == a
		}
	}
	return false
}

// CountRange returns the number of set addresses in the inclusive range
// [lo, hi]. Cost is O(log blocks + blocksize): interior blocks are
// counted from the cumulative index, only the two boundary blocks are
// decoded. For many ascending ranges (counting a partition), use a
// Counter, which replaces the binary searches with a galloping block
// hint and an in-block cursor and caches boundary-block decodes.
func (s *SetOf[A]) CountRange(lo, hi A) int {
	if s.n == 0 || lo.Compare(hi) > 0 {
		return 0
	}
	c := s.Counter()
	return c.Count(lo, hi)
}

// CountRangeErr is CountRange with the storage fault surfaced: the
// count plus the first block fault hit while resolving this range's
// boundaries (nil when the read was clean). Under the Degrade policy
// the count is the degraded result — damaged boundary blocks
// contribute nothing — and the error reports what was skipped either
// way, so callers choose their own posture per call.
func (s *SetOf[A]) CountRangeErr(lo, hi A) (int, error) {
	if s.n == 0 || lo.Compare(hi) > 0 {
		return 0, nil
	}
	c := s.Counter()
	n := c.Count(lo, hi)
	return n, c.Err()
}

// Rank returns the number of set addresses strictly below a.
func (s *SetOf[A]) Rank(a A) int {
	var z A
	if s.n == 0 || a == z {
		return 0
	}
	c := s.Counter()
	return c.Count(z, netaddr.KeyDec(a))
}

// CounterOf counts address ranges against the set in one forward
// pass. The rule is the one Count states: each range's lo must be >= the
// previous range's lo. Ranges may overlap or nest; sorted disjoint
// partitions — the case every caller has — satisfy it trivially. The
// counter keeps a galloping block hint and the last decoded boundary
// block, with an in-block cursor at the previous answer: a boundary in
// the decoded block walks forward from the cursor instead of searching
// the block again, so a full pass over K prefixes decodes each touched
// block once and walks it once — total work is O(K + touched blocks ·
// blocksize) plus the block gallops, never asymptotically worse than the
// merge walk.
//
// A Counter is single-goroutine state; create one per pass.
type CounterOf[A netaddr.Key[A]] struct {
	s *SetOf[A]
	// Block hints: loBlk and hiBlk are the blocks the previous Count's
	// lo and hi resolved to, hi its upper bound. A next lo above hi
	// starts its search at hiBlk, any other lo at loBlk.
	loBlk, hiBlk int
	hi           A
	bufI         int   // index of the decoded block in buf, -1 if none
	buf          []A   // decoded block cache
	pos          int   // cursor: the previous in-block answer for block bufI
	err          error // first block fault hit by this counter's pass
}

// Err returns the first block fault this counter hit while decoding
// boundary blocks, or nil. A fault does not stop the pass: the damaged
// block contributes no addresses (interior blocks still count exactly
// from the index) and counting continues, so callers get the degraded
// total alongside the error and apply their own policy.
func (c *CounterOf[A]) Err() error { return c.err }

// Counter is the IPv4 instantiation of CounterOf.
type Counter = CounterOf[netaddr.Addr]

// Counter returns a fresh range counter positioned at the start of the
// set.
func (s *SetOf[A]) Counter() *CounterOf[A] {
	return &CounterOf[A]{s: s, bufI: -1}
}

// findBlock returns the first block index >= from whose max is >= a
// (or > a when strict), galloping forward from from and finishing with
// a binary search inside the galloped window. Returns len(mins) when
// every remaining block ends below the bound.
func (c *CounterOf[A]) findBlock(from int, a A, strict bool) int {
	maxs := c.s.maxs
	nb := len(maxs)
	above := func(m A) bool {
		if strict {
			return m.Compare(a) > 0
		}
		return m.Compare(a) >= 0
	}
	lo := from
	if lo >= nb {
		return nb
	}
	if above(maxs[lo]) {
		return lo
	}
	// Gallop: widen [lo, hi] until maxs[hi] clears a or we run off the end.
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
	// Binary search in (lo, hi]: first index clearing the bound.
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return above(maxs[lo+1+i]) })
}

// rank returns the number of set addresses strictly below a (incl ==
// false) or at most a (incl == true), searching blocks from block from
// on, and the block the boundary resolved to. The block search uses the
// matching strictness so a run of duplicates that spans block
// boundaries is counted in full: for an inclusive rank, every block
// whose max equals a lies entirely at or below a and is counted from the
// cumulative index.
func (c *CounterOf[A]) rank(from int, a A, incl bool) (int, int) {
	s := c.s
	bi := c.findBlock(from, a, incl)
	if bi == len(s.mins) {
		return s.n, bi
	}
	if a.Compare(s.mins[bi]) < 0 {
		// Boundary falls in the gap before the block: nothing of it counts.
		return s.cum[bi], bi
	}
	if c.bufI != bi {
		dec, err := s.decodeBlock(bi, c.buf)
		if err != nil {
			// Damaged boundary block: it contributes no addresses to
			// this rank (cum[bi] counts everything before it). The
			// empty buffer is memoized like a decoded one so a range
			// whose other boundary lands in the same block does not
			// re-fault it.
			if c.err == nil {
				c.err = err
			}
			dec = c.buf[:0]
		}
		c.buf = dec
		c.bufI = bi
		c.pos = 0
	}
	c.pos = cursorRank(c.buf, c.pos, a, incl)
	return s.cum[bi] + c.pos, bi
}

// cursorRank returns the number of buf entries below a (at most a when
// incl), given the cursor k of a previous answer in the same ascending
// block. When every entry before the cursor is below the bound — always
// so for ascending boundaries — it walks forward from k; a bound that
// falls below the cursor, which overlapping ranges produce, is found by
// binary search in buf[:k] instead, so the answer never depends on the
// query order.
func cursorRank[A netaddr.Key[A]](buf []A, k int, a A, incl bool) int {
	if v4, ok := any(buf).([]netaddr.Addr); ok {
		// IPv4 fast path: "below" is one integer compare against
		// a (exclusive) or a+1 (inclusive), with no method calls.
		x := uint64(any(a).(netaddr.Addr))
		if incl {
			x++
		}
		if k > 0 && uint64(v4[k-1]) >= x {
			return sort.Search(k, func(i int) bool { return uint64(v4[i]) >= x })
		}
		for k < len(v4) && uint64(v4[k]) < x {
			k++
		}
		return k
	}
	below := func(v A) bool {
		if incl {
			return v.Compare(a) <= 0
		}
		return v.Compare(a) < 0
	}
	if k > 0 && !below(buf[k-1]) {
		return sort.Search(k, func(i int) bool { return !below(buf[i]) })
	}
	for k < len(buf) && below(buf[k]) {
		k++
	}
	return k
}

// Count returns the number of set addresses in [lo, hi]. lo must be >=
// the lo of the previous Count on this counter (the CounterOf rule).
func (c *CounterOf[A]) Count(lo, hi A) int {
	if c.s.n == 0 || lo.Compare(hi) > 0 {
		return 0
	}
	// Every block before loBlk ends below the previous lo, hence below
	// this one; when lo is above the previous hi, so does every block
	// before hiBlk.
	from := c.loBlk
	if lo.Compare(c.hi) > 0 {
		from = c.hiBlk
	}
	below, bi := c.rank(from, lo, false)
	upto, bj := c.rank(bi, hi, true)
	c.loBlk, c.hiBlk, c.hi = bi, bj, hi
	return upto - below
}

// IntersectCount returns |s ∩ t|. Both cursors gallop: a run of one set
// that lies entirely below the other's current address is skipped at
// block granularity through the [min, max] index, so sparse overlaps
// cost far less than the element-by-element merge.
func (s *SetOf[A]) IntersectCount(t *SetOf[A]) int {
	if s.n == 0 || t.n == 0 {
		return 0
	}
	a := s.iter()
	b := t.iter()
	n := 0
	for a.valid() && b.valid() {
		switch c := a.v.Compare(b.v); {
		case c < 0:
			a.seek(b.v)
		case c > 0:
			b.seek(a.v)
		default:
			n++
			a.next()
			b.next()
		}
	}
	return n
}

// iterator streams a Set in ascending order with galloping seek.
type iterator[A netaddr.Key[A]] struct {
	s   *SetOf[A]
	bi  int // current block
	k   int // index within buf
	v   A   // current value (valid when bi < blocks)
	buf []A // decoded current block
}

func (s *SetOf[A]) iter() *iterator[A] {
	it := &iterator[A]{s: s}
	if s.n > 0 {
		it.loadBlock(0)
	} else {
		it.bi = len(s.mins)
	}
	return it
}

func (it *iterator[A]) valid() bool { return it.bi < len(it.s.mins) }

// loadBlock positions the iterator at the first readable block >= bi.
// Damaged blocks decode empty (fault recorded on the set) and are
// skipped, so a corrupt block drops out of the intersection instead of
// wedging or crashing the merge.
func (it *iterator[A]) loadBlock(bi int) {
	s := it.s
	for bi < len(s.mins) {
		buf := s.readBlock(bi, it.buf)
		if len(buf) > 0 {
			it.bi = bi
			it.buf = buf
			it.k = 0
			it.v = buf[0]
			return
		}
		bi++
	}
	it.bi = bi
}

func (it *iterator[A]) next() {
	it.k++
	if it.k < len(it.buf) {
		it.v = it.buf[it.k]
		return
	}
	it.loadBlock(it.bi + 1)
}

// seek advances the iterator to the first address >= x (x must be >=
// the current value). It gallops over whole blocks via the max index
// before decoding the landing block.
func (it *iterator[A]) seek(x A) {
	s := it.s
	if x.Compare(s.maxs[it.bi]) <= 0 {
		// Stays in the current block: binary search forward from k.
		rest := it.buf[it.k:]
		j := sort.Search(len(rest), func(i int) bool { return rest[i].Compare(x) >= 0 })
		it.k += j
		if it.k < len(it.buf) {
			it.v = it.buf[it.k]
			return
		}
		it.loadBlock(it.bi + 1)
		return
	}
	// Gallop block index until the block max reaches x.
	nb := len(s.maxs)
	lo := it.bi
	step := 1
	hi := lo + step
	for hi < nb && s.maxs[hi].Compare(x) < 0 {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > nb {
		hi = nb
	}
	bi := lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return s.maxs[lo+1+i].Compare(x) >= 0 })
	it.loadBlock(bi)
	if it.bi == nb {
		return
	}
	j := sort.Search(len(it.buf), func(i int) bool { return it.buf[i].Compare(x) >= 0 })
	it.k = j
	if j < len(it.buf) {
		it.v = it.buf[j]
		return
	}
	it.loadBlock(it.bi + 1)
}

// BuilderOf assembles a Set from ascending appends, encoding each
// address into the block layout as it arrives. It is the streaming
// half of the census codec fast path: wire deltas go straight into
// block deltas with no intermediate slice.
type BuilderOf[A netaddr.Key[A]] struct {
	bsize int
	set   SetOf[A]
	prev  A
	inBlk int      // addresses in the block under construction
	buf   [19]byte // max LEB128 length of a 128-bit delta
}

// Builder is the IPv4 instantiation of BuilderOf.
type Builder = BuilderOf[netaddr.Addr]

// NewBuilder returns an IPv4 Builder. blockSize 0 means
// DefaultBlockSize; sizeHint, when positive, pre-sizes the index and
// data buffers. It exists alongside NewBuilderOf because the family
// cannot be inferred from integer arguments.
func NewBuilder(blockSize, sizeHint int) *Builder {
	return NewBuilderOf[netaddr.Addr](blockSize, sizeHint)
}

// NewBuilderOf returns a Builder for any address family. blockSize 0
// means DefaultBlockSize; sizeHint, when positive, pre-sizes the index
// and data buffers.
func NewBuilderOf[A netaddr.Key[A]](blockSize, sizeHint int) *BuilderOf[A] {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	b := &BuilderOf[A]{bsize: blockSize}
	b.set.bsize = blockSize
	if sizeHint > 0 {
		blocks := (sizeHint + blockSize - 1) / blockSize
		b.set.mins = make([]A, 0, blocks)
		b.set.maxs = make([]A, 0, blocks)
		b.set.offs = make([]int, 0, blocks)
		b.set.cum = make([]int, 0, blocks+1)
		// ~1.5 bytes per delta on census-shaped data; grown as needed.
		b.set.data = make([]byte, 0, sizeHint+sizeHint/2)
	}
	return b
}

// Append adds a to the set. Addresses must arrive in ascending order;
// duplicates are kept (multiset semantics).
func (b *BuilderOf[A]) Append(a A) error {
	s := &b.set
	if s.n > 0 && a.Compare(b.prev) < 0 {
		return fmt.Errorf("addrset: append %v after %v: not ascending", a, b.prev)
	}
	if b.inBlk == b.bsize {
		b.inBlk = 0
	}
	if b.inBlk == 0 {
		s.mins = append(s.mins, a)
		s.maxs = append(s.maxs, a)
		s.offs = append(s.offs, len(s.data))
		s.cum = append(s.cum, s.n)
	} else {
		if narrow[A]() {
			// Ascending appends keep the gap in the low half.
			gap := lo64(a) - lo64(b.prev)
			s.data = append(s.data, b.buf[:binary.PutUvarint(b.buf[:], gap)]...)
		} else {
			s.data = netaddr.AppendKeyUvarint(s.data, netaddr.KeySub(a, b.prev))
		}
		s.maxs[len(s.maxs)-1] = a
	}
	b.prev = a
	b.inBlk++
	s.n++
	return nil
}

// Finish seals and returns the set. The Builder must not be used
// afterwards.
func (b *BuilderOf[A]) Finish() *SetOf[A] {
	b.set.cum = append(b.set.cum, b.set.n)
	return &b.set
}
