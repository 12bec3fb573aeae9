// Package strategy places the paper's scanning strategies behind one
// interface so the evaluation harness can compare them head to head:
//
//   - Full: re-scan the whole announced space every cycle (the baseline
//     every other strategy's accuracy is measured against),
//   - Hitlist: re-scan exactly the addresses responsive at seed time
//     (Fan & Heidemann-style address hitlists, Figure 5),
//   - RandomSample: Heidemann-style /24-block sample (50 % random, 25 %
//     previously-responsive, 25 % densest blocks, §2 "IP hitlists and
//     samples"),
//   - TASS: the paper's density-ranked prefix selection (Figure 6).
//
// A Strategy consumes the seed scan and produces a Plan; a Plan knows its
// per-cycle probe cost and, given a later ground-truth snapshot, how many
// of that month's hosts it would have found.
package strategy

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// Plan is a concrete periodic scan: a target set with a fixed cost.
type Plan interface {
	// Cost is the number of probes one scan cycle sends.
	Cost() uint64
	// Found returns how many of snap's hosts one cycle would find.
	Found(snap *census.Snapshot) int
}

// Strategy builds a Plan from the seed (month-0) full scan.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Plan consumes the seed snapshot.
	Plan(seed *census.Snapshot) (Plan, error)
}

// Hitrate is the accuracy metric of the paper: found / available.
func Hitrate(p Plan, snap *census.Snapshot) float64 {
	if snap.Hosts() == 0 {
		return 0
	}
	return float64(p.Found(snap)) / float64(snap.Hosts())
}

// ---- Full scan ----

// Full scans the entire announced space every cycle.
type Full struct {
	// Universe is the announced space (any disjoint partition of it).
	Universe rib.Partition
}

// Name implements Strategy.
func (Full) Name() string { return "full" }

// Plan implements Strategy.
func (f Full) Plan(*census.Snapshot) (Plan, error) {
	return partitionPlan{part: f.Universe}, nil
}

type partitionPlan struct{ part rib.Partition }

func (p partitionPlan) Cost() uint64 { return p.part.AddressCount() }

func (p partitionPlan) Found(snap *census.Snapshot) int { return snap.CountIn(p.part) }

// ---- Address hitlist ----

// Hitlist re-scans exactly the addresses that responded at seed time.
type Hitlist struct{}

// Name implements Strategy.
func (Hitlist) Name() string { return "hitlist" }

// Plan implements Strategy.
func (Hitlist) Plan(seed *census.Snapshot) (Plan, error) {
	if seed.Hosts() == 0 {
		return nil, fmt.Errorf("strategy: hitlist seed is empty")
	}
	return hitlistPlan{seed: seed}, nil
}

type hitlistPlan struct{ seed *census.Snapshot }

func (p hitlistPlan) Cost() uint64 { return uint64(p.seed.Hosts()) }

func (p hitlistPlan) Found(snap *census.Snapshot) int {
	return p.seed.IntersectWith(snap)
}

// ---- TASS ----

// TASS selects prefixes by density rank until the φ host-coverage target
// is met (the paper's contribution; see internal/core).
type TASS struct {
	// Universe is the prefix partition to select from: the l-prefix view
	// or the deaggregated m-prefix view of the announced table.
	Universe rib.Partition
	// Opts carries φ and the optional density/size cuts.
	Opts core.Options
	// Label distinguishes variants in reports ("tass-l φ=0.95", ...).
	Label string
	// Workers bounds the counting-walk goroutines (0 means a single
	// worker, matching a serial core.SelectCached). Results are
	// identical at any count.
	Workers int
	// Cache, when non-nil, memoizes per-(snapshot, universe) counts so
	// repeated selections over the same seed rank without re-counting.
	Cache *census.CountCache
}

// Name implements Strategy.
func (t TASS) Name() string {
	if t.Label != "" {
		return t.Label
	}
	return fmt.Sprintf("tass φ=%g", t.Opts.Phi)
}

// Plan implements Strategy.
func (t TASS) Plan(seed *census.Snapshot) (Plan, error) {
	sel, err := t.Select(seed)
	if err != nil {
		return nil, err
	}
	return partitionPlan{part: sel.Partition()}, nil
}

// Select exposes the full TASS selection (with ranking metadata), not
// just the Plan facade.
func (t TASS) Select(seed *census.Snapshot) (*core.Selection, error) {
	workers := t.Workers
	if workers <= 0 {
		workers = 1
	}
	return core.SelectCached(seed, t.Universe, t.Opts, workers, t.Cache)
}

// ---- Heidemann-style random /24 sample ----

// RandomSample approximates the census/survey sampling of Heidemann et
// al.: a fixed number of /24 blocks, half chosen uniformly at random,
// a quarter from previously-responsive blocks, a quarter by a density
// policy (the densest blocks of the seed scan).
type RandomSample struct {
	// Universe is the announced space to sample from.
	Universe rib.Partition
	// Blocks is the number of /24 blocks to scan per cycle.
	Blocks int
	// Seed makes the random half reproducible.
	Seed int64
}

// Name implements Strategy.
func (RandomSample) Name() string { return "sample24" }

// Plan implements Strategy.
func (r RandomSample) Plan(seed *census.Snapshot) (Plan, error) {
	if r.Blocks <= 0 {
		return nil, fmt.Errorf("strategy: sample needs a positive block count")
	}
	rng := rand.New(rand.NewSource(r.Seed))
	chosen := make(map[netaddr.Prefix]struct{}, r.Blocks)

	// 25 %: previously-responsive blocks (uniformly from the seed's
	// responsive /24s).
	respBlocks := responsive24s(seed)
	quarter := r.Blocks / 4
	for i := 0; i < quarter && len(respBlocks) > 0; i++ {
		chosen[respBlocks[rng.Intn(len(respBlocks))]] = struct{}{}
	}

	// 25 %: policy — densest responsive /24 blocks first.
	counts := make(map[netaddr.Prefix]int, len(respBlocks))
	for _, a := range seed.Addrs {
		counts[netaddr.MustPrefixFrom(a, 24)]++
	}
	sort.Slice(respBlocks, func(i, j int) bool {
		ci, cj := counts[respBlocks[i]], counts[respBlocks[j]]
		if ci != cj {
			return ci > cj
		}
		return respBlocks[i].Compare(respBlocks[j]) < 0
	})
	for i := 0; i < quarter && i < len(respBlocks); i++ {
		chosen[respBlocks[i]] = struct{}{}
	}

	// Remainder (≈50 %): uniform random /24s inside the announced space.
	for guard := 0; len(chosen) < r.Blocks && guard < 50*r.Blocks; guard++ {
		i := rng.Intn(r.Universe.Len())
		p := r.Universe.Prefix(i)
		base := netaddr.MustPrefixFrom(topoRandomAddr(rng, p), 24)
		// Clip: a /24 straddling the partition prefix boundary would
		// leak outside announced space for prefixes longer than /24.
		if !p.ContainsPrefix(base) {
			continue
		}
		chosen[base] = struct{}{}
	}

	ps := make([]netaddr.Prefix, 0, len(chosen))
	for p := range chosen {
		ps = append(ps, p)
	}
	netaddr.SortPrefixes(ps)
	part, err := rib.NewPartition(ps)
	if err != nil {
		return nil, fmt.Errorf("strategy: sample blocks overlap: %w", err)
	}
	return partitionPlan{part: part}, nil
}

func topoRandomAddr(rng *rand.Rand, p netaddr.Prefix) netaddr.Addr {
	return p.First() + netaddr.Addr(uint64(rng.Int63())%p.NumAddresses())
}

func responsive24s(seed *census.Snapshot) []netaddr.Prefix {
	var out []netaddr.Prefix
	for _, a := range seed.Addrs {
		b := netaddr.MustPrefixFrom(a, 24)
		if n := len(out); n == 0 || out[n-1] != b {
			out = append(out, b)
		}
	}
	return out
}

// ---- Evaluation ----

// Evaluation is the hitrate-over-time record of one strategy on one
// protocol series, plus its per-cycle cost.
type Evaluation struct {
	Strategy string
	Protocol string
	// Cost is probes per scan cycle; CostShare normalizes by the full
	// announced space.
	Cost      uint64
	CostShare float64
	// Hitrate[m] is found/available at month m (Hitrate[0] is the seed
	// month itself).
	Hitrate []float64
}

// Evaluate seeds the strategy with series month 0 and measures hitrate on
// every month of the series. fullSpace is the announced address count
// used to normalize cost.
func Evaluate(s Strategy, series *census.Series, fullSpace uint64) (Evaluation, error) {
	if series.Months() == 0 {
		return Evaluation{}, fmt.Errorf("strategy: empty series")
	}
	plan, err := s.Plan(series.At(0))
	if err != nil {
		return Evaluation{}, fmt.Errorf("strategy %s: %w", s.Name(), err)
	}
	ev := Evaluation{
		Strategy: s.Name(),
		Protocol: series.Protocol,
		Cost:     plan.Cost(),
	}
	if fullSpace > 0 {
		ev.CostShare = float64(plan.Cost()) / float64(fullSpace)
	}
	for m := 0; m < series.Months(); m++ {
		ev.Hitrate = append(ev.Hitrate, Hitrate(plan, series.At(m)))
	}
	return ev, nil
}
