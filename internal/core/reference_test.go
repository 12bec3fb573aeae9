package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// This file keeps the one-shot ranking and selection as they were
// written before the Ranker became the package's only ranking engine:
// a packed-key sort for IPv4 partitions below 2^25 prefixes, a
// sort.Slice comparator for everything else, and a selected partition
// built through rib.NewPartition's sort. The bodies are verbatim apart
// from the ref prefix on their names. The differential tests pin every
// rank/select entry point to them.

// refDensity is the density helper the reference ranking used.
func refDensity[A netaddr.Key[A]](c int, p netaddr.Pfx[A]) float64 {
	var z A
	return math.Ldexp(float64(c), p.Bits()-z.Width())
}

// refRankCached is the reference one-shot ranking (steps 1–3).
func refRankCached[A netaddr.Key[A]](seed *census.SnapshotOf[A], part rib.PartOf[A], workers int, cache *census.CountCacheOf[A]) []StatOf[A] {
	counts, _ := cache.Counts(seed, part, workers)
	total := 0
	for _, c := range counts {
		total += c
	}
	stats := make([]StatOf[A], 0, len(counts)/2)
	keys := make([]uint64, 0, len(counts)/2)
	// The packed key spends 33 bits on v (≤ 2^32), 6 on the prefix
	// length and 25 on the rank index: only the 32-bit family fits.
	// Partitions too large for 25 bits (or counts exceeding the prefix
	// size, impossible for snapshot input but cheap to guard) fall back
	// to the comparator sort.
	var zero A
	packed := zero.Width() == 32 && part.Len() < maxPackedPrefixes
	for i, c := range counts {
		if c == 0 {
			continue
		}
		p := part.Prefix(i)
		stats = append(stats, StatOf[A]{
			Prefix:   p,
			Hosts:    c,
			Density:  refDensity(c, p),
			Coverage: float64(c) / float64(total),
		})
		if packed {
			l := uint(p.Bits())
			v := uint64(c) << l
			if v > 1<<32 {
				packed = false
				continue
			}
			keys = append(keys, packKey(v, l, len(stats)-1))
		}
	}
	if packed {
		sortPackedKeys(keys, nil) // appended in stats-index order
		out := make([]StatOf[A], len(stats))
		for j, k := range keys {
			out[j] = stats[keyIndex(k)]
		}
		return out
	}
	sort.Slice(stats, func(a, b int) bool {
		sa, sb := &stats[a], &stats[b]
		if sa.Density != sb.Density {
			return sa.Density > sb.Density
		}
		if sa.Hosts != sb.Hosts {
			return sa.Hosts > sb.Hosts
		}
		return sa.Prefix.Compare(sb.Prefix) < 0
	})
	return stats
}

// refSelectCached is the reference one-shot selection (steps 1–4).
func refSelectCached[A netaddr.Key[A]](seed *census.SnapshotOf[A], universe rib.PartOf[A], opts Options, workers int, cache *census.CountCacheOf[A]) (*SelectionOf[A], error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ranked := refRankCached(seed, universe, workers, cache)
	// A lazy seed records block faults instead of panicking; refuse to
	// build a plan over counts that silently miss damaged blocks unless
	// the caller opted into degraded reads on the snapshot itself.
	if err := seed.StorageErr(); err != nil {
		return nil, fmt.Errorf("core: seed snapshot storage fault: %w", err)
	}
	return refSelectRanked(ranked, universe, opts)
}

// refSelectRanked runs the reference selection steps 4–5 on a
// precomputed ranking.
func refSelectRanked[A netaddr.Key[A]](ranked []StatOf[A], universe rib.PartOf[A], opts Options) (*SelectionOf[A], error) {
	total := 0
	for i := range ranked {
		total += ranked[i].Hosts
	}
	return refSelectRankedTotal(ranked, total, universe, opts)
}

// refSelectRankedTotal is refSelectRanked for callers that already
// maintain the seed-host total.
func refSelectRankedTotal[A netaddr.Key[A]](ranked []StatOf[A], total int, universe rib.PartOf[A], opts Options) (*SelectionOf[A], error) {
	sel, err := refSelectionHead(ranked, total, universe, opts)
	if err != nil {
		return nil, err
	}
	ps := make([]netaddr.Pfx[A], sel.K)
	for i := 0; i < sel.K; i++ {
		ps[i] = ranked[i].Prefix
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		// Cannot happen: the universe is disjoint, so any subset is too.
		return nil, fmt.Errorf("core: internal: %w", err)
	}
	sel.part = part
	return sel, nil
}

// refSelectionHead walks the top of the ranking — it stops at the
// smallest k reaching φ (or a MinDensity/MaxPrefixes cut), never
// touching the tail — and fills everything of the Selection except the
// derived partition, which callers build on their own fast path.
func refSelectionHead[A netaddr.Key[A]](ranked []StatOf[A], total int, universe rib.PartOf[A], opts Options) (*SelectionOf[A], error) {
	if total == 0 {
		return nil, fmt.Errorf("core: seed snapshot has no hosts inside the universe")
	}

	var zero A
	w := zero.Width()
	sel := &SelectionOf[A]{Ranked: ranked, SeedHosts: total}
	covered := 0
	spaceF := 0.0
	for i := range ranked {
		if opts.MaxPrefixes > 0 && i >= opts.MaxPrefixes {
			break
		}
		if opts.MinDensity > 0 && ranked[i].Density < opts.MinDensity {
			break
		}
		covered += ranked[i].Hosts
		sel.K = i + 1
		shift := w - ranked[i].Prefix.Bits()
		if shift >= 64 {
			sel.Space = ^uint64(0) // NumAddresses saturates here too
		} else {
			sel.Space = addSat(sel.Space, 1<<uint(shift))
		}
		// Power-of-two summands keep the float accumulation exact as
		// long as the running sum stays under 2^53 — always, for IPv4.
		// Constructing 2^shift by exponent-field arithmetic is exact for
		// shift in [0, 128] and equals math.Ldexp(1, shift) without the
		// per-prefix call.
		spaceF += math.Float64frombits(uint64(1023+shift) << 52)
		// Strict "> φ" per the paper's step 4; float64 comparison on the
		// integer ratio keeps this exact.
		if float64(covered) > opts.Phi*float64(total) ||
			(opts.Phi == 1 && covered == total) {
			break
		}
	}
	sel.HostCoverage = float64(covered) / float64(total)
	if spaceF > 0 {
		sel.SpaceBits = math.Log2(spaceF)
	}
	if s := universe.AddressCount(); s > 0 {
		sel.SpaceShare = float64(sel.Space) / float64(s)
	}
	return sel, nil
}
