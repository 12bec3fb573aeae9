package census

import (
	"runtime"
	"sort"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/par"
	"github.com/tass-scan/tass/internal/rib"
)

// CountAddrsSharded counts, for each prefix of p, how many of the sorted
// addresses it contains, fanning the merge walk out over up to workers
// goroutines (0 means GOMAXPROCS). The partition is split into
// contiguous prefix shards; each shard locates its address subrange by
// binary search and counts independently; outside is recovered as the
// total minus the per-shard sums. The result is identical to
// rib.Partition.CountAddrs at any worker count.
func CountAddrsSharded(addrs []netaddr.Addr, p rib.Partition, workers int) (counts []int, outside int) {
	n := p.Len()
	if n == 0 {
		return make([]int, 0), len(addrs)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Below a few thousand prefixes per shard the spawn overhead beats
	// the walk itself; fall back to the serial merge.
	const minShard = 2048
	shard := (n + workers - 1) / workers
	if shard < minShard {
		shard = minShard
	}
	if shard >= n || len(addrs) == 0 {
		return p.CountAddrs(addrs)
	}
	counts = make([]int, n)

	firsts, lasts := p.Bounds()
	inside := make([]int, (n+shard-1)/shard)
	par.ForEachChunk(n, workers, shard, func(lo, hi int) {
		// Address subrange covered by prefixes [lo, hi).
		first := firsts[lo]
		last := lasts[hi-1]
		alo := sort.Search(len(addrs), func(i int) bool { return addrs[i] >= first })
		ahi := alo + sort.Search(len(addrs)-alo, func(i int) bool { return addrs[alo+i] > last })
		pi := lo
		got := 0
		for _, a := range addrs[alo:ahi] {
			for pi < hi && lasts[pi] < a {
				pi++
			}
			if pi == hi {
				break
			}
			if a < firsts[pi] {
				continue // gap between shard prefixes
			}
			counts[pi]++
			got++
		}
		inside[lo/shard] = got
	})
	outside = len(addrs)
	for _, got := range inside {
		outside -= got
	}
	return counts, outside
}

// countShardedFamily routes a per-prefix count to the sharded IPv4
// merge walk or, for other families, to the serial partition count
// (IPv6 universes are hitlist-seeded and orders of magnitude smaller,
// so the fan-out has nothing to amortize yet).
func countShardedFamily[A netaddr.Key[A]](addrs []A, p rib.PartOf[A], workers int) (counts []int, outside int) {
	if a4, ok := any(addrs).([]netaddr.Addr); ok {
		c, o := CountAddrsSharded(a4, any(p).(rib.Partition), workers)
		return c, o
	}
	return p.CountAddrs(addrs)
}

// CountByPrefixSharded is Snapshot.CountByPrefix with the counting walk
// sharded over workers goroutines.
func (s *SnapshotOf[A]) CountByPrefixSharded(p rib.PartOf[A], workers int) (counts []int, outside int) {
	return s.countsSharded(p, workers)
}

// countsSharded routes a per-prefix count to the backing the snapshot
// actually has: lazy snapshots count off the block index (decoding only
// the boundary blocks each prefix touches), eager ones run the sharded
// merge walk over Addrs. Results are identical at any worker count and
// across backings — the golden-equality contract the selection stack
// relies on.
func (s *SnapshotOf[A]) countsSharded(p rib.PartOf[A], workers int) (counts []int, outside int) {
	if s.lazy {
		return countSetSharded(s.Set(), p, workers)
	}
	return countShardedFamily(s.Addrs, p, workers)
}

// countSetSharded counts per-prefix hosts against a block-indexed set,
// fanning contiguous prefix shards out over workers goroutines with one
// range Counter each. Per-prefix counts are independent range queries,
// so the result cannot depend on the shard layout.
func countSetSharded[A netaddr.Key[A]](set *addrset.SetOf[A], p rib.PartOf[A], workers int) (counts []int, outside int) {
	n := p.Len()
	if n == 0 {
		return make([]int, 0), set.Len()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	counts = make([]int, n)
	// Counters amortize block decodes across a run of ascending
	// prefixes; keep shards large enough that the amortization works.
	const minShard = 512
	shard := (n + workers - 1) / workers
	if shard < minShard {
		shard = minShard
	}
	firsts, lasts := p.Bounds()
	inside := make([]int, (n+shard-1)/shard)
	par.ForEachChunk(n, workers, shard, func(lo, hi int) {
		ctr := set.Counter()
		got := 0
		for i := lo; i < hi; i++ {
			c := ctr.Count(firsts[i], lasts[i])
			counts[i] = c
			got += c
		}
		inside[lo/shard] = got
	})
	outside = set.Len()
	for _, got := range inside {
		outside -= got
	}
	return counts, outside
}
