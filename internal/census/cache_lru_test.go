package census

import (
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

func lruPartition(t *testing.T) rib.Partition {
	t.Helper()
	p, err := rib.NewPartition([]netaddr.Prefix{
		netaddr.MustParsePrefix("10.0.0.0/8"),
		netaddr.MustParsePrefix("11.0.0.0/8"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCountCacheLRUEviction pins the bound: the cache never holds more
// than its cap, and the least-recently-used entry is the one recomputed
// after eviction.
func TestCountCacheLRUEviction(t *testing.T) {
	part := lruPartition(t)
	c := newCountCacheOf[netaddr.Addr](2)
	snaps := []*Snapshot{
		NewSnapshot("a", 0, []netaddr.Addr{netaddr.MustParseAddr("10.0.0.1")}),
		NewSnapshot("b", 0, []netaddr.Addr{netaddr.MustParseAddr("10.0.0.2")}),
		NewSnapshot("c", 0, []netaddr.Addr{netaddr.MustParseAddr("10.0.0.3")}),
	}
	c.Counts(snaps[0], part, 1)
	c.Counts(snaps[1], part, 1)
	c.Counts(snaps[0], part, 1) // refresh 0: 1 is now LRU
	c.Counts(snaps[2], part, 1) // evicts 1
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, cap is 2", n)
	}
	hits0, misses0 := c.Stats()
	c.Counts(snaps[0], part, 1) // still resident
	if hits, _ := c.Stats(); hits != hits0+1 {
		t.Fatal("refreshed entry was evicted")
	}
	c.Counts(snaps[1], part, 1) // evicted: must recompute
	if _, misses := c.Stats(); misses != misses0+1 {
		t.Fatal("evicted entry was served from cache")
	}
}
