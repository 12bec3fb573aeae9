// Native delta emission: the churn step already knows every address a
// host vacated or occupied, so the monthly census.Delta can be derived
// from those (old, new) pairs in O(changed hosts) — no full-population
// re-extract, no full re-sort. The subtlety is deduplication: a
// snapshot answers once per address, however many hosts share it, so
// an address only dies when its last holder leaves and is only born
// when its first holder arrives. The tracker keeps the per-address
// holder refcounts that make that classification exact.
package churn

import (
	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/topo"
)

// addrChange is one host's address move during a churn step.
type addrChange struct {
	from, to netaddr.Addr
}

// tracker mirrors one population as its deduplicated census snapshot
// plus the (rare) addresses shared by two or more hosts, and turns a
// month's recorded changes into the exact snapshot-level delta and the
// next snapshot. The month's vacated and occupied addresses are
// radix-sorted (O(changed)); holder multiplicities come from the dupes
// map when an address is shared and from snapshot membership otherwise,
// so no full multiset is maintained — the only O(population) work per
// month is the single block-copying event merge in delta, which
// classifies born/died and materializes the next snapshot's address
// slice in the same pass.
type tracker struct {
	snap     *census.Snapshot       // current deduplicated snapshot
	dupes    map[netaddr.Addr]int32 // addresses held by >= 2 hosts
	rem, add []netaddr.Addr         // per-month change scratch
	sortBuf  []netaddr.Addr         // radix scratch for rem/add
}

// newTracker indexes the population's current addresses, taking snap
// as the (already extracted) current snapshot. Build it before the
// first recorded step; from then on delta keeps it current.
func newTracker(pop *topo.Population, snap *census.Snapshot) *tracker {
	addrs := make([]netaddr.Addr, len(pop.Hosts))
	for i := range pop.Hosts {
		addrs[i] = pop.Hosts[i].Addr
	}
	census.SortAddrs(addrs)
	dupes := make(map[netaddr.Addr]int32)
	for i := 0; i < len(addrs); {
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[i] {
			j++
		}
		if j-i >= 2 {
			dupes[addrs[i]] = int32(j - i)
		}
		i = j
	}
	return &tracker{snap: snap, dupes: dupes}
}

// delta folds one month's per-stripe change records into the holder
// counts and returns the census delta from month `from` to from+1
// together with the next snapshot: an address is born when its holder
// count rises from zero, dies when it falls to zero, and stays visible
// while other holders remain. Events are processed in address order,
// so born and died come out sorted for free.
func (t *tracker) delta(protocol string, from int, recs [][]addrChange) (*census.Delta, *census.Snapshot) {
	t.rem, t.add = t.rem[:0], t.add[:0]
	for _, rec := range recs {
		for _, c := range rec {
			t.rem = append(t.rem, c.from)
			t.add = append(t.add, c.to)
		}
	}
	if cap(t.sortBuf) < len(t.rem) {
		t.sortBuf = make([]netaddr.Addr, len(t.rem))
	}
	census.SortAddrsScratch(t.rem, t.sortBuf[:len(t.rem)])
	census.SortAddrsScratch(t.add, t.sortBuf[:len(t.add)])

	// One fused traversal produces the delta and the next snapshot:
	// untouched runs of the current snapshot are block-copied into the
	// new address slice, and at each event address the merge position
	// itself answers the membership half of the holder-count question —
	// the dupes map is consulted only for present addresses, and only
	// when shared holders exist at all.
	base, add, rem := t.snap.Addrs, t.add, t.rem
	out := make([]netaddr.Addr, 0, len(base)+len(add))
	var born, died []netaddr.Addr
	i, j, k := 0, 0, 0
	for j < len(add) || k < len(rem) {
		var e netaddr.Addr
		if j < len(add) && (k == len(rem) || add[j] <= rem[k]) {
			e = add[j]
		} else {
			e = rem[k]
		}
		p := netaddr.SeekAddrs(base, i, e)
		out = append(out, base[i:p]...)
		i = p
		present := i < len(base) && base[i] == e
		if present {
			i++
		}
		na := 0
		for j < len(add) && add[j] == e {
			na++
			j++
		}
		nr := 0
		for k < len(rem) && rem[k] == e {
			nr++
			k++
		}
		if na == nr {
			// Holder churn without a net change (e.g. one host left the
			// address, another arrived): nothing to reclassify.
			if present {
				out = append(out, e)
			}
			continue
		}
		var before int32
		if present {
			before = 1
			if len(t.dupes) > 0 {
				if n, shared := t.dupes[e]; shared {
					before = n
				}
			}
		}
		after := before + int32(na) - int32(nr)
		if after < 0 {
			panic("churn: internal: holder count below zero")
		}
		if after >= 2 {
			t.dupes[e] = after
		} else if before >= 2 {
			delete(t.dupes, e)
		}
		if after > 0 {
			out = append(out, e)
		}
		if before == 0 && after > 0 {
			born = append(born, e)
		} else if before > 0 && after == 0 {
			died = append(died, e)
		}
	}
	out = append(out, base[i:]...)
	d := &census.Delta{Protocol: protocol, FromMonth: from, ToMonth: from + 1, Born: born, Died: died}
	next := census.NewSnapshotSorted(protocol, from+1, out)
	t.snap = next
	return d, next
}

// StepDeltas advances every population by one month — the exact same
// evolution as Step — and returns the per-protocol census deltas the
// step produced; DeltaSnapshot serves the matching post-step snapshots
// without further work. The first call indexes the current
// populations; an intervening plain Step discards that index (its
// changes go unrecorded), so the next StepDeltas re-indexes.
func (s *Simulator) StepDeltas() map[string]*census.Delta {
	if s.trackers == nil {
		s.trackers = make(map[string]*tracker, len(s.u.Pops))
		for _, name := range s.u.Protocols() {
			s.trackers[name] = newTracker(s.u.Pops[name], s.ExtractSnapshot(name))
		}
		s.recs = make([][]addrChange, DefaultStripes)
	}
	s.month++
	out := make(map[string]*census.Delta, len(s.u.Pops))
	for _, name := range s.u.Protocols() {
		pop := s.u.Pops[name]
		s.frozen = freezeDonors(pop, s.frozen)
		for i := range s.recs {
			s.recs[i] = s.recs[i][:0]
		}
		stepPop(s.u, pop, topo.ProtoSeed(s.seed, name), s.month, s.Workers, s.frozen, s.recs)
		out[name], _ = s.trackers[name].delta(name, s.month-1, s.recs)
	}
	return out
}

// DeltaSnapshot returns the current snapshot of one protocol as
// maintained by the StepDeltas pipeline — the month-(Month()) census
// the deltas add up to, shared, not recomputed. It returns nil before
// the first StepDeltas (or after a plain Step discarded the tracker);
// use Snapshot or ExtractSnapshot there.
func (s *Simulator) DeltaSnapshot(protocol string) *census.Snapshot {
	trk := s.trackers[protocol]
	if trk == nil {
		return nil
	}
	return trk.snap
}

// ExtractSnapshot is Snapshot with the extraction arena owned by the
// simulator and reused across months: one exact-size allocation per
// call instead of two full-population ones. Unlike Snapshot it is not
// safe for concurrent calls.
func (s *Simulator) ExtractSnapshot(protocol string) *census.Snapshot {
	if s.ex == nil {
		s.ex = make(map[string]*extractor)
	}
	e := s.ex[protocol]
	if e == nil {
		e = &extractor{}
		s.ex[protocol] = e
	}
	return e.snapshot(s.u.Pops[protocol], protocol, s.month)
}
