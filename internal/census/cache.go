package census

import (
	"sync"
	"sync/atomic"

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
// The cache is bounded: once it holds more than its entry cap the
// least-recently-used entry is evicted, so a long-running campaign that
// feeds a fresh snapshot into every cycle cannot grow it without limit.
// Eviction only ever costs a recomputation, never correctness.
type CountCacheOf[A netaddr.Key[A]] struct {
	mu         sync.Mutex
	m          map[countKey[A]]*countEntry[A]
	cap        int
	head, tail *countEntry[A] // LRU list: head is most recently used

	hits, misses atomic.Int64
}

// CountCache is the IPv4 instantiation of CountCacheOf.
type CountCache = CountCacheOf[netaddr.Addr]

// DefaultCountCacheEntries is the entry cap of NewCountCache. Each
// entry holds one int per partition prefix, so the default bounds the
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

type countEntry[A netaddr.Key[A]] struct {
	key        countKey[A]
	prev, next *countEntry[A]
	once       sync.Once
	counts     []int
	outside    int
}

// NewCountCache returns an empty IPv4 cache bounded at
// DefaultCountCacheEntries entries.
func NewCountCache() *CountCache { return NewCountCacheCap(DefaultCountCacheEntries) }

// NewCountCacheCap returns an empty IPv4 cache evicting
// least-recently-used entries beyond maxEntries; maxEntries <= 0 means
// unbounded.
func NewCountCacheCap(maxEntries int) *CountCache {
	return NewCountCacheCapOf[netaddr.Addr](maxEntries)
}

// NewCountCacheCapOf is NewCountCacheCap for any address family.
func NewCountCacheCapOf[A netaddr.Key[A]](maxEntries int) *CountCacheOf[A] {
	return &CountCacheOf[A]{m: make(map[countKey[A]]*countEntry[A]), cap: maxEntries}
}

// Cap returns the entry cap (0 means unbounded).
func (c *CountCacheOf[A]) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}

// Len returns the number of resident entries.
func (c *CountCacheOf[A]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func partKey[A netaddr.Key[A]](p rib.PartOf[A]) *netaddr.Pfx[A] {
	ps := p.Prefixes()
	if len(ps) == 0 {
		return nil
	}
	return &ps[0]
}

// unlink removes e from the LRU list. Callers hold c.mu.
func (c *CountCacheOf[A]) unlink(e *countEntry[A]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry. Callers hold c.mu.
func (c *CountCacheOf[A]) pushFront(e *countEntry[A]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
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
	key := countKey[A]{snap: snap, part: partKey(p), n: p.Len()}
	c.mu.Lock()
	e, ok := c.m[key]
	if ok {
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
	} else {
		e = &countEntry[A]{key: key}
		c.m[key] = e
		c.pushFront(e)
		if c.cap > 0 && len(c.m) > c.cap {
			evict := c.tail
			c.unlink(evict)
			delete(c.m, evict.key)
		}
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.counts, e.outside = snap.countsSharded(p, workers)
	})
	return e.counts, e.outside
}

// Stats reports cache traffic: hits is the number of Counts calls that
// found an existing entry, misses the number that created one
// (including entries later evicted).
func (c *CountCacheOf[A]) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
