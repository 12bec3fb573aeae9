// Package lru is the bounded, single-flight cache behind the census
// layer's two memo tables: the per-(snapshot, partition) count cache
// and a lazy address set's decoded-block cache.
package lru

import "sync"

// Cache maps keys to values that are loaded on first touch. It holds at
// most its cap entries and drops the least recently used one beyond
// that; eviction only drops the cache's reference, so a caller holding
// a value keeps it. Concurrent misses on one key share a single load,
// and a failed load is not kept, so the next touch of the key loads
// again — which heals faults that were transient (an interrupted read)
// rather than damage.
//
// All bookkeeping, the hit and miss counters included, is done under
// one mutex: a hit is a map lookup and a list splice and allocates
// nothing.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	loaded       sync.Cond // broadcast whenever a load finishes
	cap          int
	m            map[K]*entry[K, V]
	head, tail   *entry[K, V] // LRU list: head is most recently used
	hits, misses int64
}

type entry[K comparable, V any] struct {
	key        K
	prev, next *entry[K, V]
	val        V
	err        error
	loading    bool
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		panic("lru: capacity below 1")
	}
	c := &Cache[K, V]{cap: capacity, m: make(map[K]*entry[K, V])}
	c.loaded.L = &c.mu
	return c
}

// Get returns the value of k, calling load on a miss. The load runs
// outside the cache lock; a Get that finds k still loading waits for
// that load and returns its result.
func (c *Cache[K, V]) Get(k K, load func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.hits++
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		for e.loading {
			c.loaded.Wait()
		}
		v, err := e.val, e.err
		c.mu.Unlock()
		return v, err
	}
	c.misses++
	e := &entry[K, V]{key: k, loading: true}
	c.m[k] = e
	c.pushFront(e)
	if len(c.m) > c.cap {
		old := c.tail
		c.unlink(old)
		delete(c.m, old.key)
	}
	c.mu.Unlock()

	v, err := load()

	c.mu.Lock()
	e.val, e.err, e.loading = v, err, false
	if err != nil && c.m[k] == e {
		c.unlink(e)
		delete(c.m, k)
	}
	c.loaded.Broadcast()
	c.mu.Unlock()
	return v, err
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats reports cache traffic: hits counts the Gets that found an entry
// (resident or still loading), misses the Gets that ran a load.
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// unlink removes e from the LRU list. Callers hold c.mu.
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
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
func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}
