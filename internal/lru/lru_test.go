package lru

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func value(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// TestEvictionOrder pins the bound at cap 2: the cache never holds more
// than its cap, and the least recently used entry is the one reloaded
// after eviction.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](2)
	c.Get("a", value(1))
	c.Get("b", value(2))
	c.Get("a", value(1)) // refresh a: b is now least recently used
	c.Get("c", value(3)) // evicts b
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, cap is 2", n)
	}
	hits0, misses0 := c.Stats()
	if v, _ := c.Get("a", value(-1)); v != 1 {
		t.Fatalf("refreshed entry reloaded: got %d", v)
	}
	if v, _ := c.Get("b", value(20)); v != 20 {
		t.Fatalf("evicted entry served from cache: got %d", v)
	}
	if hits, misses := c.Stats(); hits != hits0+1 || misses != misses0+1 {
		t.Fatalf("stats moved by %d hits, %d misses; want 1, 1", hits-hits0, misses-misses0)
	}
}

// TestConcurrentColdGetsShareOneLoad starts N Gets on one cold key while
// the load is held open: exactly one load runs, and every Get returns
// its result, a value or an error alike. A failed load leaves no entry.
func TestConcurrentColdGetsShareOneLoad(t *testing.T) {
	const n = 16
	boom := errors.New("boom")
	for _, fail := range []bool{false, true} {
		c := New[int, int](4)
		var loads atomic.Int32
		release := make(chan struct{})
		load := func() (int, error) {
			loads.Add(1)
			<-release
			if fail {
				return 0, boom
			}
			return 42, nil
		}
		var wg sync.WaitGroup
		vals := make([]int, n)
		errs := make([]error, n)
		for i := range vals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals[i], errs[i] = c.Get(7, load)
			}()
		}
		// Wait until every Get has registered before letting the load end.
		for h, m := c.Stats(); h+m < n; h, m = c.Stats() {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		if l := loads.Load(); l != 1 {
			t.Fatalf("fail=%v: %d loads ran, want 1", fail, l)
		}
		for i := range vals {
			if fail && errs[i] != boom || !fail && (errs[i] != nil || vals[i] != 42) {
				t.Fatalf("fail=%v: Get %d returned %d, %v", fail, i, vals[i], errs[i])
			}
		}
		if h, m := c.Stats(); h != n-1 || m != 1 {
			t.Fatalf("fail=%v: stats %d hits, %d misses; want %d, 1", fail, h, m, n-1)
		}
		resident := 1
		if fail {
			resident = 0
		}
		if c.Len() != resident {
			t.Fatalf("fail=%v: %d entries resident, want %d", fail, c.Len(), resident)
		}
	}
}

// TestFailedLoadNotKept pins the retry contract: a failed load returns
// its error and leaves no entry, so the next Get loads again.
func TestFailedLoadNotKept(t *testing.T) {
	c := New[int, int](4)
	boom := errors.New("boom")
	if _, err := c.Get(1, func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("Get = %v, want the load's error", err)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("failed load left %d entries", n)
	}
	if v, err := c.Get(1, value(5)); err != nil || v != 5 {
		t.Fatalf("retry = %d, %v; want 5, nil", v, err)
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Fatalf("%d loads, want 2", misses)
	}
}

// TestHitAllocatesNothing pins the hot path: a hit is a lookup and a
// list splice, with no allocation for the entry or the load closure.
func TestHitAllocatesNothing(t *testing.T) {
	c := New[int, []int](4)
	backing := []int{1, 2, 3}
	c.Get(1, func() ([]int, error) { return backing, nil })
	c.Get(2, func() ([]int, error) { return backing, nil })
	k := 1
	allocs := testing.AllocsPerRun(100, func() {
		k = 3 - k // alternate keys so every hit splices the list
		if v, _ := c.Get(k, func() ([]int, error) { return backing[:k], nil }); len(v) != 3 {
			t.Fatal("hit returned another value")
		}
	})
	if allocs != 0 {
		t.Fatalf("a hit allocates %.1f times", allocs)
	}
}

// TestEntrySize pins the per-entry footprint of the two instantiations
// the census uses: a 24-byte key with a 32-byte value and an int key
// with a slice value fit the 96- and 80-byte size classes their
// hand-written entries used.
func TestEntrySize(t *testing.T) {
	type countKey struct {
		a, b *int
		n    int
	}
	type counted struct {
		counts  []int
		outside int
	}
	if s := unsafe.Sizeof(entry[countKey, counted]{}); s > 96 {
		t.Fatalf("count entry is %d bytes, want <= 96", s)
	}
	if s := unsafe.Sizeof(entry[int, []uint32]{}); s > 80 {
		t.Fatalf("block entry is %d bytes, want <= 80", s)
	}
}
