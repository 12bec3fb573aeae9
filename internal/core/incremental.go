// Incremental ranking: the steady-state half of the §3.1 feedback
// loop, and the package's one ranking engine. A full TASS selection
// re-counts every seed address and re-sorts every responsive prefix;
// month over month the census barely changes, so the Ranker keeps the
// per-prefix counts and the ranking keys alive and repairs them from a
// census delta — work proportional to the churn and the
// responsive-prefix count, not to the seed size. The one-shot entry
// points (RankCached, SelectCached, SelectManyCached) rank through a
// Ranker built for the call.
package core

import (
	"fmt"
	"slices"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// RankerOf maintains a density ranking of one (seed, universe) pair
// across deltas. Seed it with NewRanker, advance it with Apply once per
// month (or scan cycle), and draw selections with Select — every
// selection is byte-identical to a full SelectCached on the snapshot
// the applied deltas add up to.
//
// Apply needs exclusive access; Ranked and Select only read the Ranker
// and may run concurrently with each other.
type RankerOf[A netaddr.Key[A]] struct {
	universe rib.PartOf[A]
	width    int   // the family's address width W
	counts   []int // per-universe-prefix host counts (mutated by Apply)
	total    int   // Σ counts: seed hosts inside the universe
	keys     rankKeys[A]

	// Per-Apply scratch, reused: the born/died runs mapped to
	// (prefix index, count) pairs, their merge into net touched
	// prefixes, and the displaced-prefix bitmap the key merge reads.
	bornRuns, diedRuns []idxCount
	touchedIdx         []int32
	touchedDelta       []int32
	displaced          []uint64
}

// Ranker is the IPv4 instantiation of RankerOf.
type Ranker = RankerOf[netaddr.Addr]

// idxCount is a run of delta addresses inside one universe prefix.
type idxCount struct {
	idx int32
	n   int32
}

// NewRanker counts the seed over the universe (through cache, sharded
// over workers as in RankCached) and ranks it. Like SelectCached, it
// refuses a lazy seed whose counting walk hit damaged blocks unless the
// snapshot opted into degraded reads.
func NewRanker[A netaddr.Key[A]](seed *census.SnapshotOf[A], universe rib.PartOf[A], workers int, cache *census.CountCacheOf[A]) (*RankerOf[A], error) {
	r, err := rankSeed(seed, universe, workers, cache)
	if err != nil {
		return nil, err
	}
	r.counts = slices.Clone(r.counts) // the cache's slice is read-only
	return r, nil
}

// rankSeed is NewRanker for callers that never Apply: the Ranker
// borrows the cache's count slice instead of copying it.
func rankSeed[A netaddr.Key[A]](seed *census.SnapshotOf[A], universe rib.PartOf[A], workers int, cache *census.CountCacheOf[A]) (*RankerOf[A], error) {
	counts, _ := cache.Counts(seed, universe, workers)
	if err := seed.StorageErr(); err != nil {
		return nil, fmt.Errorf("core: seed snapshot storage fault: %w", err)
	}
	return newRankerOf(universe, counts, keysFor[A](universe.Len())), nil
}

// newRankerOf ranks per-prefix counts over universe under the key
// codec keys. The Ranker keeps counts, and Apply writes to them.
func newRankerOf[A netaddr.Key[A]](universe rib.PartOf[A], counts []int, keys rankKeys[A]) *RankerOf[A] {
	var z A
	r := &RankerOf[A]{universe: universe, width: z.Width(), counts: counts, keys: keys}
	prefixes := universe.Prefixes()
	for i, c := range counts {
		if c > 0 {
			r.total += c
			keys.stage(int32(i), c, prefixes[i].Bits())
		}
	}
	keys.commit(nil)
	return r
}

// Total returns the current seed-host count inside the universe.
func (r *RankerOf[A]) Total() int { return r.total }

// Len returns the number of responsive prefixes in the ranking.
func (r *RankerOf[A]) Len() int { return r.keys.len() }

// mapRun converts a sorted address run into (prefix index, count)
// pairs, galloping cursors through the universe's bound caches and the
// run itself — O(runs · log gap) compares, none per address inside a
// prefix. Addresses outside the universe are skipped, exactly as the
// full recompute skips them.
func (r *RankerOf[A]) mapRun(addrs []A, out []idxCount) []idxCount {
	out = out[:0]
	firsts, lasts := r.universe.Bounds()
	i := 0
	for pos := 0; pos < len(addrs); {
		i = netaddr.SeekKeys(lasts, i, addrs[pos])
		if i == len(lasts) {
			break
		}
		pos = netaddr.SeekKeys(addrs, pos, firsts[i]) // skip addresses below prefix i
		end := netaddr.SeekKeys(addrs, pos, lasts[i])
		for end < len(addrs) && addrs[end] == lasts[i] {
			end++
		}
		if end > pos {
			out = append(out, idxCount{idx: int32(i), n: int32(end - pos)})
		}
		pos = end
	}
	return out
}

// Apply advances the ranking by one delta. Touched prefixes — those
// whose slice of the address space intersects a born or died run — get
// their counts adjusted and their keys rebuilt; the repair is one
// bounded sort of the displaced keys plus a linear merge with the
// untouched (still sorted) remainder. Addresses outside the universe
// are ignored, exactly as the full recompute ignores them.
//
// On error the ranker is unchanged: the delta is validated against the
// counts before anything mutates.
func (r *RankerOf[A]) Apply(d *census.DeltaOf[A]) error {
	r.bornRuns = r.mapRun(d.Born, r.bornRuns)
	r.diedRuns = r.mapRun(d.Died, r.diedRuns)
	prefixes := r.universe.Prefixes()

	// Merge-join the two index-sorted run lists into net touched
	// prefixes and validate before mutating anything.
	r.touchedIdx = r.touchedIdx[:0]
	r.touchedDelta = r.touchedDelta[:0]
	b, dd := 0, 0
	for b < len(r.bornRuns) || dd < len(r.diedRuns) {
		var idx int32
		var dc int32
		switch {
		case dd == len(r.diedRuns) || (b < len(r.bornRuns) && r.bornRuns[b].idx < r.diedRuns[dd].idx):
			idx, dc = r.bornRuns[b].idx, r.bornRuns[b].n
			b++
		case b == len(r.bornRuns) || r.diedRuns[dd].idx < r.bornRuns[b].idx:
			idx, dc = r.diedRuns[dd].idx, -r.diedRuns[dd].n
			dd++
		default:
			idx, dc = r.bornRuns[b].idx, r.bornRuns[b].n-r.diedRuns[dd].n
			b++
			dd++
		}
		if dc == 0 {
			continue
		}
		c := r.counts[idx] + int(dc)
		if c < 0 {
			return fmt.Errorf("core: delta drops prefix %v below zero hosts (delta does not match the ranked snapshot)", prefixes[idx])
		}
		// A prefix never holds more hosts than addresses, which also
		// keeps the packed key's density field in range.
		if shift := r.width - prefixes[idx].Bits(); shift < 63 && c > 1<<shift {
			return fmt.Errorf("core: %d hosts overflow prefix %v", c, prefixes[idx])
		}
		r.touchedIdx = append(r.touchedIdx, idx)
		r.touchedDelta = append(r.touchedDelta, dc)
	}
	if len(r.touchedIdx) == 0 {
		return nil
	}

	// Adjust counts, mark the displaced prefixes, stage their new keys
	// (touchedIdx ascends, as staging requires) and repair.
	if r.displaced == nil {
		r.displaced = make([]uint64, (len(prefixes)+63)/64)
	}
	for t, idx := range r.touchedIdx {
		c := r.counts[idx] + int(r.touchedDelta[t])
		r.counts[idx] = c
		r.total += int(r.touchedDelta[t])
		r.displaced[idx>>6] |= 1 << (idx & 63)
		if c > 0 {
			r.keys.stage(idx, c, prefixes[idx].Bits())
		}
	}
	r.keys.commit(r.displaced)
	for _, idx := range r.touchedIdx {
		r.displaced[idx>>6] &^= 1 << (idx & 63)
	}
	return nil
}

// Ranked materializes the current ranking as stats in density order —
// the ranking RankCached would return for the current snapshot, bit
// for bit. The slice is freshly allocated; later Applies do not touch
// it.
func (r *RankerOf[A]) Ranked() []StatOf[A] {
	return r.keys.stats(r.universe.Prefixes(), r.total)
}

// Select draws a TASS selection from the current ranking: byte-identical
// to SelectCached on the snapshot the applied deltas add up to, at the
// cost of a stat materialization and the top-K selection walk instead
// of a recount and full re-sort.
func (r *RankerOf[A]) Select(opts Options) (*SelectionOf[A], error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return r.selectFrom(r.Ranked(), opts)
}
