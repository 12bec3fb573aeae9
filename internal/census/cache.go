package census

import (
	"github.com/tass-scan/tass/internal/lru"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// CountCacheOf memoizes per-prefix host counts by (snapshot, partition)
// identity. The phi-grid and the multi-figure experiment engine rank
// the same seed snapshot over the same universe again and again; with a
// shared cache each pair is counted exactly once, concurrent requests
// for the same pair block on a single computation, and every later
// request is a map lookup.
//
// Identity is pointer identity: the *SnapshotOf and the backing array
// of the partition's prefix slice. Snapshots and partitions never
// change after construction, so cached counts can never go stale. A
// nil *CountCacheOf is valid and simply computes every request (no
// memoization), which keeps call sites free of conditionals.
//
// The cache is bounded at DefaultCountCacheEntries: beyond that the
// least-recently-used entry is evicted, so a long-running campaign that
// feeds a fresh snapshot into every cycle cannot grow it without limit.
// Eviction only ever costs a recomputation, never correctness.
type CountCacheOf[A netaddr.Key[A]] struct {
	c *lru.Cache[countKey[A], counted]
}

// CountCache is the IPv4 instantiation of CountCacheOf.
type CountCache = CountCacheOf[netaddr.Addr]

// DefaultCountCacheEntries is the entry cap of NewCountCache. Each
// entry holds one int per partition prefix, so the cap bounds the
// cache near cap × partition-size ints.
const DefaultCountCacheEntries = 4096

// countKey identifies a (snapshot, partition) pair.
// Partitions are value types; their identity is the backing array of
// the prefix slice plus its length (Subset and the trie builders always
// allocate fresh arrays).
type countKey[A netaddr.Key[A]] struct {
	snap *SnapshotOf[A]
	part *netaddr.Pfx[A]
	n    int
}

// counted is one memoized CountByPrefix result.
type counted struct {
	counts  []int
	outside int
}

// NewCountCache returns an empty IPv4 cache bounded at
// DefaultCountCacheEntries entries.
func NewCountCache() *CountCache { return newCountCacheOf[netaddr.Addr](DefaultCountCacheEntries) }

func newCountCacheOf[A netaddr.Key[A]](maxEntries int) *CountCacheOf[A] {
	return &CountCacheOf[A]{c: lru.New[countKey[A], counted](maxEntries)}
}

// Len returns the number of resident entries.
func (c *CountCacheOf[A]) Len() int {
	if c == nil {
		return 0
	}
	return c.c.Len()
}

func partKey[A netaddr.Key[A]](p rib.PartOf[A]) *netaddr.Pfx[A] {
	ps := p.Prefixes()
	if len(ps) == 0 {
		return nil
	}
	return &ps[0]
}

// Counts returns, for each partition prefix, how many of the snapshot's
// addresses it contains, plus the number of addresses outside the
// partition. The first request for a pair computes via the sharded
// merge walk (workers as in CountAddrsSharded; 0 means GOMAXPROCS);
// subsequent requests return the memoized slice.
//
// The returned slice is shared across callers and must be treated as
// read-only.
func (c *CountCacheOf[A]) Counts(snap *SnapshotOf[A], p rib.PartOf[A], workers int) (counts []int, outside int) {
	if c == nil {
		return snap.countsSharded(p, workers)
	}
	r, _ := c.c.Get(countKey[A]{snap: snap, part: partKey(p), n: p.Len()}, func() (counted, error) {
		counts, outside := snap.countsSharded(p, workers)
		return counted{counts, outside}, nil
	})
	return r.counts, r.outside
}

// Stats reports cache traffic: hits is the number of Counts calls that
// found an existing entry, misses the number that created one
// (including entries later evicted).
func (c *CountCacheOf[A]) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.c.Stats()
}
