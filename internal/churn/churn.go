// Package churn evolves the host populations of a synthetic universe
// month by month, reproducing the three churn processes behind the TASS
// paper's temporal results:
//
//  1. Dynamic addressing: a protocol-dependent share of hosts re-rolls
//     its address every month, almost always inside the same announced
//     prefix. This is what collapses address hitlists (Figure 5) while
//     leaving prefix selections nearly intact (Figure 6).
//  2. Population turnover: hosts die and are replaced; most births land
//     near existing population mass, a small background lands uniformly
//     in the announced space and seeds previously-empty prefixes.
//  3. Re-homing: a small share of hosts moves to an unrelated announced
//     address (provider change), the dominant cause of the slow
//     0.3–0.7 %/month decay of TASS accuracy.
//
// # Striped determinism
//
// Every population is partitioned into DefaultStripes contiguous host
// stripes, and every (protocol, stripe, month) triple owns its own RNG
// substream derived with topo.MixSeed from the protocol's
// topo.ProtoSeed lane. Stripes mutate only their own hosts and read
// shared state that is frozen for the month (the universe, and the
// start-of-month donor index for mass-proportional births), so they
// are order-independent: the simulated series is a pure function of
// (universe, seed, months) and byte-identical at every worker count.
// The stripe count and substream derivation are part of that
// determinism contract and must not change.
package churn

import (
	"runtime"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/par"
	"github.com/tass-scan/tass/internal/topo"
)

// DefaultStripes is the fixed number of RNG substreams each population
// is split into per month. It is deliberately independent of the
// worker count (so results never depend on -workers) and a good deal
// larger than any realistic core count (so the intra-protocol fan-out
// keeps every core busy even when one protocol dominates the month).
const DefaultStripes = 64

// RunConfig parameterizes a simulation run beyond the universe and
// seed. The zero value is a serial run producing lazily-indexed
// snapshots.
type RunConfig struct {
	// Workers bounds the goroutines used across protocols and stripes
	// (0 means GOMAXPROCS). Any value produces byte-identical series.
	Workers int
}

// Simulator advances the populations of one universe in place. Every
// (protocol, stripe, month) triple evolves on its own derived RNG
// substream, so with the same universe and seed the produced series is
// deterministic and independent of the order (or concurrency) in which
// populations and stripes are stepped.
type Simulator struct {
	// Workers bounds the goroutines used per Step (0 means GOMAXPROCS).
	// The evolution is byte-identical at any value.
	Workers int

	u      *topo.Universe
	seed   int64
	month  int
	frozen []int32 // reusable start-of-month donor index

	trackers map[string]*tracker   // per-protocol refcounts for StepDeltas
	recs     [][]addrChange        // reusable per-stripe change records
	ex       map[string]*extractor // per-protocol arenas for ExtractSnapshot
}

// New returns a simulator for u seeded with seed.
func New(u *topo.Universe, seed int64) *Simulator {
	return &Simulator{u: u, seed: seed}
}

// Month returns the number of Step calls so far.
func (s *Simulator) Month() int { return s.month }

// Step advances every population by one month. It does not record
// address changes, so any delta trackers built by StepDeltas are
// discarded — the next StepDeltas re-indexes the populations.
func (s *Simulator) Step() {
	s.trackers = nil
	s.month++
	for _, name := range s.u.Protocols() {
		pop := s.u.Pops[name]
		s.frozen = freezeDonors(pop, s.frozen)
		stepPop(s.u, pop, topo.ProtoSeed(s.seed, name), s.month, s.Workers, s.frozen, nil)
	}
}

// Snapshot captures the current state of one protocol as a census
// snapshot labeled with the current month. Each call uses its own
// scratch, so concurrent Snapshot calls are safe (Step is not).
func (s *Simulator) Snapshot(protocol string) *census.Snapshot {
	var ex extractor
	return ex.snapshot(s.u.Pops[protocol], protocol, s.month)
}

// freezeDonors records the start-of-month l-prefix index of every host
// into buf (grown as needed) and returns it. Mass-proportional births
// sample donors from this frozen view, never from mid-month mutated
// hosts, so the birth distribution is identical no matter which stripes
// have already stepped.
func freezeDonors(pop *topo.Population, buf []int32) []int32 {
	hosts := pop.Hosts
	if cap(buf) < len(hosts) {
		buf = make([]int32, len(hosts))
	}
	buf = buf[:len(hosts)]
	for i := range hosts {
		buf[i] = hosts[i].LIdx
	}
	return buf
}

// stepPop advances one population by one month, fanning the host walk
// out over DefaultStripes substreams on up to workers goroutines. It
// mutates only pop; the universe and the frozen donor index are
// read-only, and each stripe writes only its own host range, so
// distinct populations and stripes may be stepped concurrently. When
// recs is non-nil it must hold one slot per stripe; each stripe
// appends its (old, new) address changes to its own slot, so recording
// never synchronizes and the recorded set is independent of the worker
// count.
func stepPop(u *topo.Universe, pop *topo.Population, protoSeed int64, month, workers int, donors []int32, recs [][]addrChange) {
	hosts := pop.Hosts
	n := len(hosts)
	if n == 0 {
		return
	}
	chunk := (n + DefaultStripes - 1) / DefaultStripes
	par.ForEachChunk(n, workers, chunk, func(lo, hi int) {
		stripe := lo / chunk
		rng := topo.NewRNG(topo.MixSeed(protoSeed, uint64(stripe), uint64(month)))
		var rec *[]addrChange
		if recs != nil {
			rec = &recs[stripe]
		}
		stepHosts(u, pop, hosts[lo:hi], donors, rng, rec)
	})
}

// stepHosts walks one stripe of hosts on its own substream, appending
// every host's address change to rec when recording is on. The RNG
// schedule is identical with and without recording — delta emission
// must never change the simulated series.
func stepHosts(u *topo.Universe, pop *topo.Population, hosts []topo.Host, donors []int32, rng *topo.RNG, rec *[]addrChange) {
	prof := &pop.Profile
	// Hoist the two branch thresholds every host compares against; the
	// rest of the profile is only read on the rare churn branches.
	deathRate := prof.DeathRate
	moveEnd := prof.DeathRate + prof.MoveRate
	for i := range hosts {
		h := &hosts[i]
		old := h.Addr
		r := rng.Float64()
		switch {
		case r < deathRate:
			// Death with immediate replacement (stationary population).
			if rng.Float64() < prof.BirthBackground {
				// Background birth: uniform over the announced space.
				addr := u.RandomAnnouncedAddr(rng)
				lidx, _ := u.LPrefixOf(addr)
				h.Addr = addr
				h.LIdx = int32(lidx)
			} else {
				// Mass-proportional birth: same prefix as a random host
				// of the frozen start-of-month population, placed like
				// an original resident.
				lidx := int(donors[rng.Intn(len(donors))])
				h.Addr = u.PlaceHostAddr(rng, lidx, prof)
				h.LIdx = int32(lidx)
			}
			h.Dynamic = rng.Float64() < prof.DynamicShare

		case r < moveEnd:
			// Re-homing. A share of movers lands in cold space (prefixes
			// that hosted nothing at seed time — new deployments), the
			// rest uniformly in the announced space.
			if rng.Float64() < prof.MoveColdShare {
				if addr, lidx, ok := u.RandomColdAddr(rng, pop); ok {
					h.Addr = addr
					h.LIdx = int32(lidx)
					break
				}
			}
			addr := u.RandomAnnouncedAddr(rng)
			lidx, _ := u.LPrefixOf(addr)
			h.Addr = addr
			h.LIdx = int32(lidx)

		default:
			if !h.Dynamic {
				break
			}
			// Dynamic re-roll inside the current prefix. With
			// probability MLocality the new lease stays inside the same
			// m-partition piece; otherwise anywhere in the l-prefix.
			if rng.Float64() < prof.MLocality {
				if mi, ok := u.More.Find(h.Addr); ok {
					h.Addr = topo.RandomAddrIn(rng, u.More.Prefix(mi))
					break
				}
			}
			h.Addr = topo.RandomAddrIn(rng, u.Less.Prefix(int(h.LIdx)))
		}
		if rec != nil && h.Addr != old {
			*rec = append(*rec, addrChange{from: old, to: h.Addr})
		}
	}
}

// extractor holds the per-protocol snapshot-extraction arena reused
// across months: the gather buffer addresses are collected and sorted
// in, the radix-sort scratch, and (for the incremental path) the
// previous month's state. Only the final deduplicated address slice of
// each snapshot is freshly allocated — it has to outlive the month —
// and it is exactly sized, so extraction does one tight allocation per
// snapshot instead of two full-population ones plus the sort's.
type extractor struct {
	gather  []netaddr.Addr
	scratch []netaddr.Addr
}

// snapshot freezes one population as a census snapshot: exactly what a
// full scan at this instant would report (sorted, de-duplicated — two
// hosts on one address answer as one). Every call re-sorts the full
// population: an incremental diff-and-merge against the previous month
// was tried and measured slower — the branchless LSD radix re-sort
// beats sorting the ~25 % changed minority plus a branchy (and
// mispredict-heavy) merge walk over all N.
func (e *extractor) snapshot(pop *topo.Population, protocol string, month int) *census.Snapshot {
	hosts := pop.Hosts
	n := len(hosts)
	if cap(e.gather) < n {
		e.gather = make([]netaddr.Addr, n)
		e.scratch = make([]netaddr.Addr, n)
	}
	buf := e.gather[:n]
	for i := range hosts {
		buf[i] = hosts[i].Addr
	}
	census.SortAddrsScratch(buf, e.scratch[:n])
	return dedupAlloc(buf, protocol, month)
}

// dedupAlloc copies the sorted multiset buf into an exactly-sized,
// duplicate-free fresh slice (buf is left untouched) and wraps it as a
// snapshot.
func dedupAlloc(buf []netaddr.Addr, protocol string, month int) *census.Snapshot {
	w := 0
	for i, a := range buf {
		if i > 0 && buf[i-1] == a {
			continue
		}
		w++
	}
	out := make([]netaddr.Addr, 0, w)
	for i, a := range buf {
		if i > 0 && buf[i-1] == a {
			continue
		}
		out = append(out, a)
	}
	return census.NewSnapshotSorted(protocol, month, out)
}

// Run generates a monthly series of months+1 snapshots per protocol
// (months 0..months), evolving the universe in place. It is RunSim
// with a single worker; every configuration produces identical series.
func Run(u *topo.Universe, seed int64, months int) map[string]*census.Series {
	return RunSim(u, seed, months, RunConfig{Workers: 1})
}

// RunSim generates a monthly series of months+1 snapshots per protocol
// (months 0..months), evolving the universe in place. The worker
// budget is split between a per-protocol fan-out and the per-stripe
// fan-out inside each protocol, so single-protocol universes still
// scale; the output is byte-identical at any RunConfig.Workers, and
// to RunSimDeltas's series.
func RunSim(u *topo.Universe, seed int64, months int, cfg RunConfig) map[string]*census.Series {
	series, _ := runSim(u, seed, months, cfg, false)
	return series
}

// RunSimDeltas is RunSim on the incremental path: every post-seed
// snapshot is derived from its predecessor through a native
// census.Delta emitted by the churn step itself (see delta.go) instead
// of re-extracting and re-sorting the full population each month.
// It additionally returns those deltas: deltas[name][m-1] carries the
// churn from month m-1 to month m, and applying it to series month m-1
// reproduces month m exactly.
func RunSimDeltas(u *topo.Universe, seed int64, months int, cfg RunConfig) (map[string]*census.Series, map[string][]*census.Delta) {
	return runSim(u, seed, months, cfg, true)
}

// runSim is RunSim, tracking and returning the per-month deltas when
// withDeltas is set.
func runSim(u *topo.Universe, seed int64, months int, cfg RunConfig, withDeltas bool) (map[string]*census.Series, map[string][]*census.Delta) {
	names := u.Protocols()
	if len(names) == 0 {
		return map[string]*census.Series{}, map[string][]*census.Delta{}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := workers
	if outer > len(names) {
		outer = len(names)
	}
	// Round the inner share up so a non-dividing budget is not stranded
	// (transient overshoot < outer goroutines).
	inner := (workers + outer - 1) / outer

	series := make([]*census.Series, len(names))
	deltas := make([][]*census.Delta, len(names))
	par.ForEach(len(names), outer, func(ni int) {
		name := names[ni]
		pop := u.Pops[name]
		protoSeed := topo.ProtoSeed(seed, name)
		var frozen []int32
		s := &census.Series{Protocol: name}
		if withDeltas {
			var ex extractor
			snap := ex.snapshot(pop, name, 0)
			s.Snapshots = append(s.Snapshots, snap)
			trk := newTracker(pop, snap)
			recs := make([][]addrChange, DefaultStripes)
			for m := 1; m <= months; m++ {
				frozen = freezeDonors(pop, frozen)
				for i := range recs {
					recs[i] = recs[i][:0]
				}
				stepPop(u, pop, protoSeed, m, inner, frozen, recs)
				d, next := trk.delta(name, m-1, recs)
				s.Snapshots = append(s.Snapshots, next)
				deltas[ni] = append(deltas[ni], d)
			}
		} else {
			var ex extractor
			for m := 0; m <= months; m++ {
				if m > 0 {
					frozen = freezeDonors(pop, frozen)
					stepPop(u, pop, protoSeed, m, inner, frozen, nil)
				}
				s.Snapshots = append(s.Snapshots, ex.snapshot(pop, name, m))
			}
		}
		series[ni] = s
	})
	out := make(map[string]*census.Series, len(names))
	dout := make(map[string][]*census.Delta, len(names))
	for ni, name := range names {
		out[name] = series[ni]
		if withDeltas {
			dout[name] = deltas[ni]
		}
	}
	return out, dout
}
