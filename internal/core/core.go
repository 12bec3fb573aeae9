// Package core implements the paper's contribution: the Topology Aware
// Scanning Strategy (TASS) prefix-selection algorithm.
//
// Given one full scan (the seed) and a prefix universe (either the
// l-prefix or the deaggregated m-prefix partition of the announced table),
// TASS:
//
//  1. counts responsive addresses c_i per prefix i (Σc_i = N),
//  2. computes density ρ_i = c_i / 2^(W-len_i) and relative host
//     coverage φ_i = c_i / N,
//  3. ranks prefixes by descending density,
//  4. selects the smallest k with Σ_{i≤k} φ_i > φ,
//  5. hands prefixes 1..k to the periodic scanner until the next reseed.
//
// Steps 1–4 live here; step 5 is the scan scheduler in internal/scan and
// the public tass package. The engine is generic over the address
// family (W = 32 or 128): the IPv4 instantiations keep their packed
// integer ranking sort, IPv6 rankings use the comparator path, and both
// share every line of selection logic — which is exactly the paper's
// future-work direction, where brute-forcing the space is impossible
// and prefix selection is the only viable scan scoping.
package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// StatOf describes one responsive prefix of the seed scan.
type StatOf[A netaddr.Key[A]] struct {
	Prefix netaddr.Pfx[A]
	// Hosts is c_i: responsive addresses inside the prefix.
	Hosts int
	// Density is ρ_i = Hosts / 2^(W-len).
	Density float64
	// Coverage is φ_i = Hosts / N.
	Coverage float64
}

// PrefixStat is the IPv4 instantiation of StatOf.
type PrefixStat = StatOf[netaddr.Addr]

// density returns ρ = c / 2^(W-len) exactly: scaling by a power of two
// is lossless in IEEE 754, so Ldexp(c, len-W) is bit-identical to the
// division float64(c)/float64(2^(W-len)) the IPv4 path historically
// used — and it cannot overflow the denominator for W = 128.
func density[A netaddr.Key[A]](c int, p netaddr.Pfx[A]) float64 {
	var z A
	return math.Ldexp(float64(c), p.Bits()-z.Width())
}

// RankCached computes the responsive-prefix statistics of a seed
// snapshot over a partition, sorted by descending density (steps 1–3).
// Ties break by host count (more first) and then prefix order, keeping
// the ranking deterministic. Prefixes with zero hosts are omitted
// (ρ > 0, as in the paper's Figure 4).
//
// The per-prefix counting walk is sharded over up to workers
// goroutines (0 means GOMAXPROCS) and the counts are memoized in cache
// by (seed, part) identity: the first ranking of a pair pays for the
// walk, every later one reuses the counts. A nil cache computes every
// call. The ranking is byte-identical with or without a cache at any
// worker count.
//
// For IPv4 the sort orders one packed uint64 per responsive prefix
// (sortPackedKeys) rather than running a sort.Slice comparator: density
// ρ = c/2^(32-len) compares exactly as the integer v = c<<len (both are
// v/2^32), and within equal v a larger host count means a shorter
// prefix, so (density desc, hosts desc, prefix asc) packs losslessly
// into (^v, len, rank-index) — no interface calls, no reflection swaps,
// no float comparisons on the ~100 K-entry paper-scale ranking. Wider
// families cannot pack v = c<<len into 33 bits and use the comparator
// sort, whose order is identical.
func RankCached[A netaddr.Key[A]](seed *census.SnapshotOf[A], part rib.PartOf[A], workers int, cache *census.CountCacheOf[A]) []StatOf[A] {
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
			Density:  density(c, p),
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

// Options parameterizes a selection.
type Options struct {
	// Phi is the target host coverage φ in (0, 1]. φ=1 selects every
	// responsive prefix; φ=0.95 trades 5 % of hosts for a much smaller
	// scan footprint.
	Phi float64

	// MinDensity, when positive, stops selection once the ranked density
	// falls below the threshold, even if φ has not been reached (the
	// paper's "omit prefixes with a low density" optimization, §3.4).
	MinDensity float64

	// MaxPrefixes, when positive, caps the number of selected prefixes
	// (the paper's "first 20 K prefixes" analysis).
	MaxPrefixes int
}

// SelectionOf is a TASS scan plan: the prefixes to probe each cycle.
type SelectionOf[A netaddr.Key[A]] struct {
	// Ranked lists every responsive prefix in density order; the first K
	// entries are selected.
	Ranked []StatOf[A]
	// K is the number of selected prefixes (step 4's smallest k).
	K int
	// SeedHosts is N, the responsive-address count of the seed scan
	// inside the partition.
	SeedHosts int
	// HostCoverage is the achieved Σφ_i over the selection.
	HostCoverage float64
	// Space is the address count of the selection: the per-cycle probe
	// cost of the plan. It saturates at the maximum uint64 for IPv6
	// selections wider than 2^64 addresses; use SpaceBits there.
	Space uint64
	// SpaceBits is log2(Space) computed in floating point without the
	// saturation: the probe cost as an exponent, the natural unit for
	// IPv6 plans (a /32 selection is SpaceBits 96).
	SpaceBits float64
	// SpaceShare is Space relative to the full partition. Exact for
	// IPv4; for IPv6 both sides saturate and the share is only a bound.
	SpaceShare float64

	part rib.PartOf[A] // selected prefixes as a partition
}

// Selection is the IPv4 instantiation of SelectionOf.
type Selection = SelectionOf[netaddr.Addr]

// validate rejects out-of-range option values.
func (o Options) validate() error {
	if o.Phi <= 0 || o.Phi > 1 {
		return fmt.Errorf("core: φ must be in (0,1], got %v", o.Phi)
	}
	return nil
}

// SelectCached runs TASS prefix selection (steps 1–4) on a seed
// snapshot, ranking through RankCached with the same workers and cache
// (a single worker and a nil cache are the plain serial selection). The
// selection is identical at any worker count, cached or not.
func SelectCached[A netaddr.Key[A]](seed *census.SnapshotOf[A], universe rib.PartOf[A], opts Options, workers int, cache *census.CountCacheOf[A]) (*SelectionOf[A], error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ranked := RankCached(seed, universe, workers, cache)
	// A lazy seed records block faults instead of panicking; refuse to
	// build a plan over counts that silently miss damaged blocks unless
	// the caller opted into degraded reads on the snapshot itself.
	if err := seed.StorageErr(); err != nil {
		return nil, fmt.Errorf("core: seed snapshot storage fault: %w", err)
	}
	return selectRanked(ranked, universe, opts)
}

// packKey packs one responsive prefix into the uint64 ranking key: the
// density integer v = hosts<<len inverted (so ascending key order is
// descending density), the prefix length (equal v with a longer prefix
// means fewer hosts, ranked later), and a 25-bit tiebreak index that
// must be monotone in partition order. Both the batch sort in
// RankCached and the incremental repair in Ranker sort these same keys,
// which is what makes the two paths byte-identical. IPv4 only: v and
// len do not fit for wider families.
func packKey(v uint64, bits uint, idx int) uint64 {
	return (^v&(1<<33-1))<<31 | uint64(bits)<<25 | uint64(idx)
}

// maxPackedPrefixes bounds the universes the packed key can rank: the
// tiebreak index has 25 bits.
const maxPackedPrefixes = 1 << 25

// keyIndex recovers the tiebreak index of a packed ranking key.
func keyIndex(k uint64) int { return int(k & (maxPackedPrefixes - 1)) }

// addSat adds address counts saturating at the maximum uint64.
func addSat(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// selectRanked runs selection steps 4–5 on a precomputed ranking. The
// ranked slice is shared read-only by the returned Selection. Callers
// have already validated opts.
func selectRanked[A netaddr.Key[A]](ranked []StatOf[A], universe rib.PartOf[A], opts Options) (*SelectionOf[A], error) {
	total := 0
	for i := range ranked {
		total += ranked[i].Hosts
	}
	return selectRankedTotal(ranked, total, universe, opts)
}

// selectionHead walks the top of the ranking — it stops at the
// smallest k reaching φ (or a MinDensity/MaxPrefixes cut), never
// touching the tail — and fills everything of the Selection except the
// derived partition, which callers build on their own fast path.
func selectionHead[A netaddr.Key[A]](ranked []StatOf[A], total int, universe rib.PartOf[A], opts Options) (*SelectionOf[A], error) {
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

// selectRankedTotal is selectRanked for callers that already maintain
// the seed-host total: the O(ranked) re-sum is skipped.
func selectRankedTotal[A netaddr.Key[A]](ranked []StatOf[A], total int, universe rib.PartOf[A], opts Options) (*SelectionOf[A], error) {
	sel, err := selectionHead(ranked, total, universe, opts)
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

// Partition returns the selected prefixes as a sorted disjoint partition,
// ready for scanning or evaluation.
func (s *SelectionOf[A]) Partition() rib.PartOf[A] { return s.part }

// Prefixes returns the selected prefixes in density-rank order.
func (s *SelectionOf[A]) Prefixes() []netaddr.Pfx[A] {
	out := make([]netaddr.Pfx[A], s.K)
	for i := 0; i < s.K; i++ {
		out[i] = s.Ranked[i].Prefix
	}
	return out
}

// Efficiency returns the expected probes-per-host ratio of the plan on
// the seed month: Space / covered hosts. Lower is better; a full scan's
// efficiency is partition space / N.
func (s *SelectionOf[A]) Efficiency() float64 {
	// Sum the selected hosts exactly: the float round-trip
	// HostCoverage*SeedHosts drifts for large N.
	covered := 0
	for i := 0; i < s.K; i++ {
		covered += s.Ranked[i].Hosts
	}
	if covered == 0 {
		return 0
	}
	return float64(s.Space) / float64(covered)
}

// Hitrate evaluates the plan against a later full-scan snapshot: the
// fraction of that month's hosts the selection still covers (the y-axis
// of the paper's Figure 6).
func (s *SelectionOf[A]) Hitrate(snap *census.SnapshotOf[A]) float64 {
	if snap.Hosts() == 0 {
		return 0
	}
	return float64(snap.CountIn(s.part)) / float64(snap.Hosts())
}

// CoverageCurve returns, for each rank r (1-based, downsampled to at most
// points entries), the cumulative host coverage and cumulative space
// share — the solid and dashed curves of the paper's Figure 4.
type CurvePoint struct {
	Rank       int
	Density    float64
	HostCov    float64
	SpaceShare float64
}

// CoverageCurve computes the ranked density/coverage curves of Figure 4.
// points bounds the number of samples (0 means every rank).
func CoverageCurve[A netaddr.Key[A]](ranked []StatOf[A], universeSpace uint64, points int) []CurvePoint {
	if len(ranked) == 0 {
		return nil
	}
	total := 0
	for i := range ranked {
		total += ranked[i].Hosts
	}
	step := 1
	if points > 0 && len(ranked) > points {
		step = (len(ranked) + points - 1) / points
	}
	var out []CurvePoint
	hosts := 0
	var space uint64
	for i := range ranked {
		hosts += ranked[i].Hosts
		space = addSat(space, ranked[i].Prefix.NumAddresses())
		if (i+1)%step == 0 || i == len(ranked)-1 {
			out = append(out, CurvePoint{
				Rank:       i + 1,
				Density:    ranked[i].Density,
				HostCov:    float64(hosts) / float64(total),
				SpaceShare: float64(space) / float64(universeSpace),
			})
		}
	}
	return out
}
