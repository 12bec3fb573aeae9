package addrset

import (
	"fmt"

	"github.com/tass-scan/tass/internal/lru"
	"github.com/tass-scan/tass/internal/netaddr"
)

// BlockSource is where a lazily-backed set's encoded payload lives.
// The set core never materializes the payload: every block fault asks
// the source for exactly that block's byte extent. Three backings
// exist: the set's own contiguous in-memory payload (no source at all —
// the historical fast path), Bytes over any in-core or mmap'd slice,
// and the census file source, which serves extents from an mmap'd
// TASSNAP3 payload or by pread on platforms without mmap.
//
// Reads can fail: a pread against a truncated file, a checksum
// mismatch in a corruption-detecting wrapper, a transient I/O error.
// Sources return the error instead of panicking; the set core wraps it
// in a *BlockError naming the block and byte extent, and the set's
// FaultPolicy decides whether the fault poisons the read or degrades
// it (see SetFaultPolicy).
//
// Sources must be safe for concurrent Bytes calls and must serve
// immutable data: the set retains and re-reads extents at any time.
type BlockSource interface {
	// Bytes returns the payload bytes [off, off+n). The returned slice
	// is read-only; it may alias the source's storage (mmap, in-core
	// slice) or be freshly read (pread fallback).
	Bytes(off, n int) ([]byte, error)
	// Size returns the total payload length in bytes.
	Size() int
}

// Bytes is the in-core BlockSource: a payload that is already (or
// still) one byte slice — a decoded file region, an mmap'd window, a
// test fixture. Blocks stay varint-encoded inside it until first
// touched.
type Bytes []byte

// Bytes implements BlockSource by subslicing.
func (b Bytes) Bytes(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(b) {
		return nil, fmt.Errorf("addrset: extent [%d,%d) outside %d-byte payload", off, off+n, len(b))
	}
	return b[off : off+n], nil
}

// Size implements BlockSource.
func (b Bytes) Size() int { return len(b) }

// BlockError is the typed fault of one lazy block read: the block that
// failed, the byte extent it occupies in the source payload, and the
// underlying cause (a source read error, a checksum mismatch, or a
// malformed delta stream). It localizes corruption to one block so a
// scrubber can quarantine exactly the damaged bytes.
type BlockError struct {
	// Block is the index of the failed block in the set's skip index.
	Block int
	// Off and Len are the block's byte extent within the source payload.
	Off, Len int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *BlockError) Error() string {
	return fmt.Sprintf("addrset: block %d (payload bytes [%d,%d)): %v", e.Block, e.Off, e.Off+e.Len, e.Err)
}

// Unwrap returns the underlying cause.
func (e *BlockError) Unwrap() error { return e.Err }

// FaultPolicy selects what a lazy set does when a block read or decode
// fails: refuse the result or degrade around the damage. Faults are
// recorded either way (see Faults); the policy only decides whether
// consumers treat the result as an error.
type FaultPolicy int

const (
	// FailFast (the default) poisons reads: the first fault is recorded
	// and surfaced by ReadErr, and integrity-checking consumers
	// (selection, ranking, campaign reseeds) return it to their caller.
	FailFast FaultPolicy = iota
	// Degrade keeps counting: a damaged block contributes nothing to
	// boundary decodes (interior blocks still count exactly from the
	// CRC-verified index), the fault is recorded in Faults, and ReadErr
	// stays nil. Counts may undershoot by at most the population of the
	// damaged blocks that were touched as range boundaries.
	Degrade
)

// DefaultBlockCacheCap is the decoded-block residency bound of a lazy
// set when FromIndex is given a zero cache cap: at the default block
// size the cache tops out near cap×64 addresses. A caller that needs
// another bound passes it to FromIndex.
const DefaultBlockCacheCap = 4096

// Lazy reports whether the set's payload lives behind a BlockSource
// (blocks decode on demand through the LRU cache) rather than in a
// contiguous in-memory slice.
func (s *SetOf[A]) Lazy() bool { return s.src != nil }

// ResidentBlocks returns the number of decoded blocks currently held by
// the lazy-decode cache (0 for an eager set): the working-set metric
// the huge-tier benchmarks record.
func (s *SetOf[A]) ResidentBlocks() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Len()
}

// Decodes returns how many block decodes the lazy cache has performed
// since construction (0 for an eager set). A cold counting pass decodes
// each touched block exactly once; re-touching resident blocks adds
// nothing.
func (s *SetOf[A]) Decodes() int64 {
	if s.cache == nil {
		return 0
	}
	_, misses := s.cache.Stats()
	return misses
}

// SetFaultPolicy sets how the set treats failed block reads; see
// FaultPolicy. The default is FailFast. Set it before handing the set
// to concurrent readers — the policy is not synchronized with in-flight
// reads.
func (s *SetOf[A]) SetFaultPolicy(p FaultPolicy) { s.policy = p }

// Policy returns the set's fault policy.
func (s *SetOf[A]) Policy() FaultPolicy { return s.policy }

// recordFault remembers a block fault, deduplicated by block index, so
// Faults reports each damaged block once no matter how many reads
// touched it.
func (s *SetOf[A]) recordFault(be *BlockError) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if s.faultSeen == nil {
		s.faultSeen = make(map[int]bool)
	}
	if s.faultSeen[be.Block] {
		return
	}
	s.faultSeen[be.Block] = true
	s.faults = append(s.faults, *be)
}

// Faults returns the block faults recorded so far (deduplicated by
// block), in first-seen order. The slice is a copy. Faults are recorded
// under both policies; under Degrade this is how a surviving consumer
// learns what it skipped.
func (s *SetOf[A]) Faults() []BlockError {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if len(s.faults) == 0 {
		return nil
	}
	out := make([]BlockError, len(s.faults))
	copy(out, s.faults)
	return out
}

// ReadErr returns the error a fault-checking consumer should surface:
// under FailFast, the first recorded block fault; under Degrade, nil
// (the faults are still listed by Faults). Counting entry points in the
// census and selection layers call this after a pass over a lazy set
// and propagate the result.
func (s *SetOf[A]) ReadErr() error {
	if s.policy == Degrade {
		return nil
	}
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	if len(s.faults) == 0 {
		return nil
	}
	e := s.faults[0]
	return &e
}

// readBlock decodes block bi through the cache (or directly on an eager
// set), recording any fault and returning an empty slice for a damaged
// block — the degraded-read primitive every non-error-returning
// consumer (Counter, iterator, Contains, Walk) is built on. Callers
// needing the error use decodeBlock.
func (s *SetOf[A]) readBlock(bi int, buf []A) []A {
	addrs, err := s.decodeBlock(bi, buf)
	if err != nil {
		return addrs[:0]
	}
	return addrs
}

// FromIndex assembles a lazily-decoded set from a prebuilt skip index
// over an encoded payload: per-block first/last addresses, address
// counts and encoded byte lengths, plus the BlockSource holding the
// concatenated block streams (each stream is counts[i]-1 uvarint deltas
// from mins[i] — the same layout Builder produces). The census TASSNAP3
// codec is the canonical caller: it decodes the file's block directory
// into these slices in O(blocks) and never touches the payload.
//
// FromIndex takes ownership of the index slices. cacheCap bounds the
// decoded-block LRU (0 means DefaultBlockCacheCap). The index is
// validated in O(blocks); the payload itself is only faulted on demand.
// A corrupt block stream surfaces as a *BlockError at first decode —
// propagated or degraded around per the set's FaultPolicy — and every
// lazy decode is checked against the trusted index (population and max
// address), so payload damage is detected even without per-block
// checksums in the source.
func FromIndex[A netaddr.Key[A]](mins, maxs []A, counts, blens []int, bsize int, src BlockSource, cacheCap int) (*SetOf[A], error) {
	nb := len(mins)
	if len(maxs) != nb || len(counts) != nb || len(blens) != nb {
		return nil, fmt.Errorf("addrset: index slices disagree: %d mins, %d maxs, %d counts, %d blens",
			nb, len(maxs), len(counts), len(blens))
	}
	if bsize <= 0 {
		bsize = DefaultBlockSize
	}
	if src == nil {
		src = Bytes(nil)
	}
	s := &SetOf[A]{
		bsize: bsize,
		mins:  mins,
		maxs:  maxs,
		offs:  make([]int, nb),
		cum:   make([]int, nb+1),
		blens: make([]int, nb),
		src:   src,
	}
	off := 0
	for i := 0; i < nb; i++ {
		c, bl := counts[i], blens[i]
		if c < 1 || c > bsize {
			return nil, fmt.Errorf("addrset: block %d holds %d addresses (block size %d)", i, c, bsize)
		}
		// Every delta is 1–19 bytes; a block of c addresses encodes
		// c-1 of them.
		if bl < c-1 || bl > 19*(c-1) {
			return nil, fmt.Errorf("addrset: block %d: %d bytes cannot encode %d deltas", i, bl, c-1)
		}
		if mins[i].Compare(maxs[i]) > 0 {
			return nil, fmt.Errorf("addrset: block %d min %v above max %v", i, mins[i], maxs[i])
		}
		if c == 1 && mins[i] != maxs[i] {
			return nil, fmt.Errorf("addrset: single-address block %d spans %v-%v", i, mins[i], maxs[i])
		}
		if i > 0 && mins[i].Compare(maxs[i-1]) < 0 {
			return nil, fmt.Errorf("addrset: block %d min %v below previous max %v", i, mins[i], maxs[i-1])
		}
		s.offs[i] = off
		s.blens[i] = bl
		off += bl
		s.n += c
		s.cum[i+1] = s.n
	}
	if off != src.Size() {
		return nil, fmt.Errorf("addrset: index describes %d payload bytes, source holds %d", off, src.Size())
	}
	if cacheCap <= 0 {
		cacheCap = DefaultBlockCacheCap
	}
	s.cache = lru.New[int, []A](cacheCap)
	return s, nil
}
