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
// the public tass package. Every ranking and selection runs through one
// engine, RankerOf, generic over the address family (W = 32 or 128):
// only its key codec tells the families apart — IPv4 keeps a packed
// integer key, IPv6 a wide float key — and both share every line of
// selection logic, which is exactly the paper's future-work direction,
// where brute-forcing the space is impossible and prefix selection is
// the only viable scan scoping.
package core

import (
	"fmt"
	"math"
	"math/bits"

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
// worker count, and equals Ranked on a Ranker of the same seed. Unlike
// the selection entry points, it ranks a faulted lazy seed's partial
// counts; check the snapshot's StorageErr when that matters.
func RankCached[A netaddr.Key[A]](seed *census.SnapshotOf[A], part rib.PartOf[A], workers int, cache *census.CountCacheOf[A]) []StatOf[A] {
	counts, _ := cache.Counts(seed, part, workers)
	return newRankerOf(part, counts, keysFor[A](part.Len())).Ranked()
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
// snapshot: a Ranker counted with the same workers and cache as
// RankCached (a single worker and a nil cache are the plain serial
// selection), then one Select. The selection is identical at any
// worker count, cached or not. A lazy seed that hit damaged blocks
// while counting is refused unless the snapshot opted into degraded
// reads.
func SelectCached[A netaddr.Key[A]](seed *census.SnapshotOf[A], universe rib.PartOf[A], opts Options, workers int, cache *census.CountCacheOf[A]) (*SelectionOf[A], error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r, err := rankSeed(seed, universe, workers, cache)
	if err != nil {
		return nil, err
	}
	return r.selectFrom(r.Ranked(), opts)
}

// addSat adds address counts saturating at the maximum uint64.
func addSat(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

// selectFrom runs selection steps 4–5 on ranked, this Ranker's
// materialized ranking, which the Selection shares. The walk stops at
// the smallest k reaching φ (or a MinDensity/MaxPrefixes cut), never
// touching the tail. The selected partition is built without a sort:
// the chosen prefixes' universe indices are collected through a
// bitmap, which yields them in ascending — already sorted and disjoint
// — order. It only reads the Ranker, so selections may run
// concurrently.
func (r *RankerOf[A]) selectFrom(ranked []StatOf[A], opts Options) (*SelectionOf[A], error) {
	total := r.total
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
	if s := r.universe.AddressCount(); s > 0 {
		sel.SpaceShare = float64(sel.Space) / float64(s)
	}
	bm := make([]uint64, (r.universe.Len()+63)/64)
	r.keys.top(sel.K, bm)
	idx := make([]int32, 0, sel.K)
	for w, word := range bm {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			idx = append(idx, int32(w<<6+b))
		}
	}
	sel.part = r.universe.SubsetAscending(idx)
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

// CurvePoint is one sample of the ranked density/coverage curves: at
// rank Rank (1-based), the prefix density and the cumulative host
// coverage and space share.
type CurvePoint struct {
	Rank       int
	Density    float64
	HostCov    float64
	SpaceShare float64
}

// CoverageCurve returns, for each rank r (1-based, downsampled to at
// most points entries; 0 means every rank), the cumulative host
// coverage and cumulative space share — the solid and dashed curves of
// the paper's Figure 4.
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
