// Incremental ranking: the steady-state half of the §3.1 feedback
// loop. A full TASS selection re-counts every seed address and re-sorts
// every responsive prefix; month over month the census barely changes,
// so the Ranker keeps the per-prefix counts and the packed ranking keys
// of PrefixStat order alive and repairs them from a census.Delta —
// work proportional to the churn and the responsive-prefix count, not
// to the seed size.
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// Ranker maintains a density ranking of one (seed, universe) pair
// across deltas. Seed it with NewRanker, advance it with Apply once per
// month (or scan cycle), and draw selections with Select — every
// selection is byte-identical to a full SelectCached on the snapshot
// the applied deltas add up to.
//
// A Ranker is single-goroutine state.
type Ranker struct {
	universe rib.Partition
	counts   []int // per-universe-prefix host counts (owned, mutated by Apply)
	total    int   // Σ counts: seed hosts inside the universe

	// keys is the ranking: one packed key per responsive prefix, kept
	// sorted. The tiebreak index is the universe prefix index — monotone
	// in prefix order, so the order matches RankCached's stats-index
	// packing exactly.
	keys    []uint64
	scratch []uint64 // merge target, swapped with keys every Apply

	// Flat per-prefix views of the universe, precomputed once. firsts
	// and lasts turn the sorted-run mapping walk into integer-slice
	// scans with no Prefix method calls; info packs each prefix with
	// its current density into one 16-byte record so the ranked-stat
	// fill — which visits prefixes in density order, i.e. randomly —
	// pays one cache line per entry instead of two. Densities are
	// refreshed only for touched prefixes.
	firsts, lasts []netaddr.Addr
	info          []prefixInfo

	// Per-Apply scratch, reused: the born/died runs mapped to
	// (prefix index, count) pairs, their merge into net touched
	// prefixes, the displaced-prefix bitmap the key filter reads, and
	// the rebuilt keys.
	bornRuns, diedRuns []idxCount
	touchedIdx         []int32
	touchedDelta       []int32
	displaced          []uint64 // bitmap over universe prefix indices
	newKeys            []uint64
	selIdx             []int32 // ascending selected indices per Select
}

// idxCount is a run of delta addresses inside one universe prefix.
type idxCount struct {
	idx int32
	n   int32
}

// prefixInfo pairs a universe prefix with its current density ρ.
type prefixInfo struct {
	pfx  netaddr.Prefix
	dens float64
}

// NewRanker counts the seed over the universe (through cache, sharded
// over workers as in RankCached) and packs the initial ranking. It
// errors when the universe cannot use the packed-key ranking (2^25 or
// more prefixes) — callers should fall back to the full per-month
// recompute, which handles any size.
func NewRanker(seed *census.Snapshot, universe rib.Partition, workers int, cache *census.CountCache) (*Ranker, error) {
	if universe.Len() >= maxPackedPrefixes {
		return nil, fmt.Errorf("core: universe of %d prefixes exceeds the packed-key ranking; use the full recompute", universe.Len())
	}
	counts, _ := cache.Counts(seed, universe, workers)
	// Same storage-fault posture as SelectCached: a lazy seed that hit
	// damaged blocks during the counting walk must not silently rank
	// from partial counts.
	if err := seed.StorageErr(); err != nil {
		return nil, fmt.Errorf("core: seed snapshot storage fault: %w", err)
	}
	r := &Ranker{
		universe:  universe,
		counts:    slices.Clone(counts),
		displaced: make([]uint64, (universe.Len()+63)/64),
		firsts:    make([]netaddr.Addr, universe.Len()),
		lasts:     make([]netaddr.Addr, universe.Len()),
		info:      make([]prefixInfo, universe.Len()),
	}
	for i := 0; i < universe.Len(); i++ {
		f, l := universe.FirstAt(i), universe.LastAt(i)
		r.firsts[i] = f
		r.lasts[i] = l
		r.info[i] = prefixInfo{pfx: universe.Prefix(i), dens: float64(counts[i]) / float64(uint64(l-f)+1)}
	}
	responsive := 0
	for _, c := range counts {
		if c > 0 {
			responsive++
		}
	}
	r.keys = make([]uint64, 0, responsive)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		k, err := r.pack(i, c)
		if err != nil {
			return nil, err
		}
		r.total += c
		r.keys = append(r.keys, k)
	}
	// Appended in index order: the radix repair applies, and its
	// scratch becomes the merge buffer every Apply reuses.
	r.scratch = sortPackedKeys(r.keys, nil)
	return r, nil
}

// pack builds the ranking key of prefix i holding c hosts.
func (r *Ranker) pack(i, c int) (uint64, error) {
	l := uint(r.bitsAt(i))
	v := uint64(c) << l
	if v > 1<<32 {
		return 0, fmt.Errorf("core: %d hosts overflow prefix %v", c, r.universe.Prefix(i))
	}
	return packKey(v, l, i), nil
}

// bitsAt recovers prefix i's length from the cached range bounds
// (the range spans 2^(32-bits) addresses), avoiding a Prefix method
// call on the Apply hot path.
func (r *Ranker) bitsAt(i int) int {
	return 32 - bits.Len64(uint64(r.lasts[i]-r.firsts[i]))
}

// Total returns the current seed-host count inside the universe.
func (r *Ranker) Total() int { return r.total }

// Len returns the number of responsive prefixes in the ranking.
func (r *Ranker) Len() int { return len(r.keys) }

// mapRun converts a sorted address run into (prefix index, count)
// pairs, galloping the prefix cursor through the precomputed bound
// slices — O(run · log meanGap) integer compares, no Prefix method
// calls, no per-address full binary search. Addresses outside the
// universe are skipped, exactly as the full recompute skips them.
func (r *Ranker) mapRun(addrs []netaddr.Addr, out []idxCount) []idxCount {
	out = out[:0]
	firsts, lasts := r.firsts, r.lasts
	nu := len(lasts)
	i := 0
	for pos := 0; pos < len(addrs); {
		a := addrs[pos]
		i = netaddr.SeekAddrs(lasts, i, a)
		if i == nu {
			break
		}
		if a < firsts[i] {
			pos++
			continue
		}
		last := lasts[i]
		n := int32(0)
		for pos < len(addrs) && addrs[pos] <= last {
			n++
			pos++
		}
		out = append(out, idxCount{idx: int32(i), n: n})
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
func (r *Ranker) Apply(d *census.Delta) error {
	r.bornRuns = r.mapRun(d.Born, r.bornRuns)
	r.diedRuns = r.mapRun(d.Died, r.diedRuns)

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
			return fmt.Errorf("core: delta drops prefix %v below zero hosts (delta does not match the ranked snapshot)", r.universe.Prefix(int(idx)))
		}
		if uint64(c)<<uint(r.bitsAt(int(idx))) > 1<<32 {
			return fmt.Errorf("core: %d hosts overflow prefix %v", c, r.universe.Prefix(int(idx)))
		}
		r.touchedIdx = append(r.touchedIdx, idx)
		r.touchedDelta = append(r.touchedDelta, dc)
	}
	if len(r.touchedIdx) == 0 {
		return nil
	}

	// Adjust counts and densities, mark the displaced prefixes, build
	// replacements.
	r.newKeys = r.newKeys[:0]
	dropped := 0 // touched prefixes whose stale key leaves r.keys
	for t, idx := range r.touchedIdx {
		if r.counts[idx] > 0 {
			dropped++
		}
		c := r.counts[idx] + int(r.touchedDelta[t])
		r.counts[idx] = c
		// Exact: the range size is a power of two, so this division
		// matches float64(c) / float64(pfx.NumAddresses()) bit for bit.
		r.info[idx].dens = float64(c) / float64(uint64(r.lasts[idx]-r.firsts[idx])+1)
		r.total += int(r.touchedDelta[t])
		r.displaced[idx>>6] |= 1 << (idx & 63)
		if c > 0 {
			k, _ := r.pack(int(idx), c) // overflow pre-validated above
			r.newKeys = append(r.newKeys, k)
		}
	}
	// The merge target holds exactly the new ranking; sized once here,
	// it is also the radix scratch (newKeys never outnumbers it), and
	// touchedIdx ascends, so the rebuilt keys are in index order.
	if n := len(r.keys) - dropped + len(r.newKeys); cap(r.scratch) < n {
		r.scratch = make([]uint64, 0, n)
	}
	r.scratch = sortPackedKeys(r.newKeys, r.scratch)

	// One pass: drop every displaced key, merge the rebuilt ones in.
	out := r.scratch[:0]
	j := 0
	for _, k := range r.keys {
		idx := keyIndex(k)
		if r.displaced[idx>>6]&(1<<(idx&63)) != 0 {
			continue
		}
		for j < len(r.newKeys) && r.newKeys[j] < k {
			out = append(out, r.newKeys[j])
			j++
		}
		out = append(out, k)
	}
	out = append(out, r.newKeys[j:]...)
	r.keys, r.scratch = out, r.keys
	for _, idx := range r.touchedIdx {
		r.displaced[idx>>6] &^= 1 << (idx & 63)
	}
	return nil
}

// Ranked materializes the current ranking as PrefixStats in density
// order — the same slice RankCached would build from the current
// snapshot (densities divide by the same precomputed float64
// denominator, so every bit matches). The slice is freshly allocated;
// it is not invalidated by later Applies.
func (r *Ranker) Ranked() []PrefixStat {
	ranked := make([]PrefixStat, 0, len(r.keys))
	totalF := float64(r.total)
	for _, k := range r.keys {
		// The key already encodes the host count (v = hosts<<len), so
		// the fill decodes it instead of a second random memory load.
		plen := uint(k>>25) & 0x3F
		c := int((^(k >> 31) & (1<<33 - 1)) >> plen)
		inf := &r.info[keyIndex(k)]
		ranked = append(ranked, PrefixStat{
			Prefix:   inf.pfx,
			Hosts:    c,
			Density:  inf.dens,
			Coverage: float64(c) / totalF,
		})
	}
	return ranked
}

// Select draws a TASS selection from the current ranking: byte-identical
// to SelectCached on the snapshot the applied deltas add up to, at the
// cost of a stat materialization and the top-K selection walk instead
// of a recount and full re-sort. The selected partition is built
// without a sort: the chosen prefixes' universe indices are collected
// through a bitmap, which yields them in ascending — already sorted
// and disjoint — order.
func (r *Ranker) Select(opts Options) (*Selection, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	sel, err := selectionHead(r.Ranked(), r.total, r.universe, opts)
	if err != nil {
		return nil, err
	}
	bm := r.displaced // zero between Applies; restored below
	for j := 0; j < sel.K; j++ {
		idx := keyIndex(r.keys[j])
		bm[idx>>6] |= 1 << (idx & 63)
	}
	r.selIdx = r.selIdx[:0]
	for w, word := range bm {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			r.selIdx = append(r.selIdx, int32(w<<6+b))
		}
		bm[w] = 0
	}
	sel.part = r.universe.SubsetAscending(r.selIdx)
	return sel, nil
}
