// Package rib models an announced-prefix table (a BGP RIB reduced to its
// prefixes) and derives the two prefix universes the TASS paper compares:
//
//   - the l-prefix view: only less-specific (maximal) announced prefixes,
//   - the m-prefix view: the announced table deaggregated around its
//     more-specifics into a minimal disjoint partition (Figure 2).
//
// Both views are Partitions: sorted, pairwise-disjoint prefix sets that
// support O(log n) point location and O(n+m) bulk host counting, the two
// operations the selection algorithm and the evaluation harness live on.
package rib

import (
	"errors"
	"fmt"
	"sort"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/pfx2as"
	"github.com/tass-scan/tass/internal/trie"
)

// Entry is one announced prefix with its origin annotation.
type Entry struct {
	Prefix netaddr.Prefix
	Origin pfx2as.Origin
}

// Table is an announced-prefix table. Entries are kept sorted by
// (address, length); duplicates are collapsed (last origin wins).
type Table struct {
	entries []Entry

	// Lazily derived views.
	less  *Partition
	deagg *Partition
}

// New builds a Table from entries. The input is copied, sorted and
// de-duplicated.
func New(entries []Entry) *Table {
	es := make([]Entry, len(entries))
	copy(es, entries)
	sort.Slice(es, func(i, j int) bool { return es[i].Prefix.Compare(es[j].Prefix) < 0 })
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].Prefix == e.Prefix {
			out[n-1].Origin = e.Origin
			continue
		}
		out = append(out, e)
	}
	return &Table{entries: out}
}

// FromRecords builds a Table from pfx2as records.
func FromRecords(records []pfx2as.Record) *Table {
	es := make([]Entry, len(records))
	for i, r := range records {
		es[i] = Entry{Prefix: r.Prefix, Origin: r.Origin}
	}
	return New(es)
}

// Records converts the table back into pfx2as records.
func (t *Table) Records() []pfx2as.Record {
	out := make([]pfx2as.Record, len(t.entries))
	for i, e := range t.entries {
		out[i] = pfx2as.Record{Prefix: e.Prefix, Origin: e.Origin}
	}
	return out
}

// Len returns the number of announced prefixes.
func (t *Table) Len() int { return len(t.entries) }

// Entries returns the sorted announced entries. The slice is shared; do
// not modify it.
func (t *Table) Entries() []Entry { return t.entries }

// Prefixes returns the announced prefixes in sorted order.
func (t *Table) Prefixes() []netaddr.Prefix {
	out := make([]netaddr.Prefix, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.Prefix
	}
	return out
}

// LessSpecifics returns the l-prefix view: the maximal announced prefixes,
// with every prefix covered by another announcement dropped.
func (t *Table) LessSpecifics() Partition {
	if t.less == nil {
		p := mustPartition(trie.LessSpecificOnly(t.Prefixes()))
		t.less = &p
	}
	return *t.less
}

// Deaggregated returns the m-prefix view: the minimal disjoint partition
// produced by decomposing every l-prefix around its announced
// more-specifics (paper Figure 2).
func (t *Table) Deaggregated() Partition {
	if t.deagg == nil {
		p := mustPartition(trie.Deaggregate(t.Prefixes()))
		t.deagg = &p
	}
	return *t.deagg
}

// AnnouncedSpace returns the number of addresses covered by the table
// (the union of all announcements).
func (t *Table) AnnouncedSpace() uint64 {
	return t.LessSpecifics().AddressCount()
}

// OriginsOf maps every prefix of a partition (a selection or universe
// derived from this table) to its origin AS: the primary origin of the
// most specific announcement containing the prefix, or 0 when none does
// (or the announcement carries no origin). The result feeds the scan
// engine's per-AS politeness layer (scan.Politeness.Origins), which
// paces, budgets and accounts probes per origin network.
func (t *Table) OriginsOf(p Partition) []uint32 {
	tr := trie.New[uint32]()
	for _, e := range t.entries {
		as, _ := e.Origin.Primary() // 0 when unknown, the "no origin" bucket
		tr.Insert(e.Prefix, as)
	}
	out := make([]uint32, p.Len())
	for i := 0; i < p.Len(); i++ {
		// Partition prefixes never straddle announcements (both views are
		// deaggregated around more-specifics), so the most specific
		// announced cover of the whole prefix is its origin.
		if _, as, ok := tr.LookupPrefix(p.Prefix(i)); ok {
			out[i] = as
		}
	}
	return out
}

// Stats summarizes the aggregation structure of a table, mirroring the
// numbers the paper reports for the CAIDA dataset of 2015-09-07
// (595,644 prefixes, 54% more-specifics covering 34.4% of the space).
type Stats struct {
	Prefixes       int     // total announced prefixes
	MoreSpecifics  int     // prefixes covered by another announcement
	MoreShare      float64 // MoreSpecifics / Prefixes
	Space          uint64  // announced address space (union)
	MoreSpace      uint64  // space covered by more-specifics (union)
	MoreSpaceShare float64 // MoreSpace / Space
}

// Stats computes aggregation statistics for the table.
func (t *Table) Stats() Stats {
	tr := trie.New[struct{}]()
	for _, e := range t.entries {
		tr.Insert(e.Prefix, struct{}{})
	}
	var more []netaddr.Prefix
	for _, e := range t.entries {
		// A prefix is a more-specific iff some announcement strictly
		// contains it, i.e. iff its parent has an announced cover.
		if par, ok := e.Prefix.Parent(); ok {
			if _, _, found := tr.LookupPrefix(par); found {
				more = append(more, e.Prefix)
			}
		}
	}
	s := Stats{
		Prefixes:      len(t.entries),
		MoreSpecifics: len(more),
		Space:         t.AnnouncedSpace(),
	}
	if s.Prefixes > 0 {
		s.MoreShare = float64(s.MoreSpecifics) / float64(s.Prefixes)
	}
	moreUnion := mustPartition(trie.LessSpecificOnly(more))
	s.MoreSpace = moreUnion.AddressCount()
	if s.Space > 0 {
		s.MoreSpaceShare = float64(s.MoreSpace) / float64(s.Space)
	}
	return s
}

// PartOf is a sorted, pairwise-disjoint set of prefixes of family A:
// one of the paper's two scanning universes. The zero value is an empty
// partition.
type PartOf[A netaddr.Key[A]] struct {
	prefixes []netaddr.Pfx[A]
	firsts   []A // parallel cache of prefix network addresses
	lasts    []A // parallel cache of prefix broadcast addresses
	space    uint64
}

// Partition is the IPv4 instantiation of PartOf.
type Partition = PartOf[netaddr.Addr]

// ErrNotPartition is returned by NewPartition when prefixes overlap.
var ErrNotPartition = errors.New("rib: prefixes overlap")

// NewPartition validates that ps is pairwise disjoint and builds a
// Partition. The input is copied and sorted. It works for any address
// family despite the historical name.
func NewPartition[A netaddr.Key[A]](ps []netaddr.Pfx[A]) (PartOf[A], error) {
	cp := make([]netaddr.Pfx[A], len(ps))
	copy(cp, ps)
	netaddr.SortPfx(cp)
	part := newPartitionSorted(cp)
	// Prefix ranges either nest or are disjoint, and sorting orders them
	// by first address — so any overlap shows up as an adjacent pair
	// whose ranges touch. Checking the cached range bounds avoids a
	// per-pair Overlaps call.
	for i := 1; i < len(cp); i++ {
		if part.lasts[i-1].Compare(part.firsts[i]) >= 0 {
			return PartOf[A]{}, fmt.Errorf("%w: %v and %v", ErrNotPartition, cp[i-1], cp[i])
		}
	}
	return part, nil
}

func mustPartition[A netaddr.Key[A]](sorted []netaddr.Pfx[A]) PartOf[A] {
	return newPartitionSorted(sorted)
}

// addSat adds address counts saturating at the maximum uint64: IPv6
// prefixes shorter than /64 already saturate NumAddresses, and their
// sums must not wrap back into plausible-looking small numbers.
func addSat(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

func newPartitionSorted[A netaddr.Key[A]](sorted []netaddr.Pfx[A]) PartOf[A] {
	if p4, ok := any(sorted).([]netaddr.Prefix); ok {
		return any(newPartitionSorted32(p4)).(PartOf[A])
	}
	firsts := make([]A, len(sorted))
	lasts := make([]A, len(sorted))
	var space uint64
	for i, p := range sorted {
		firsts[i] = p.First()
		lasts[i] = p.Last()
		space = addSat(space, p.NumAddresses())
	}
	return PartOf[A]{prefixes: sorted, firsts: firsts, lasts: lasts, space: space}
}

// newPartitionSorted32 is the concrete IPv4 partition build: selection
// construction rebuilds a partition per reseed, so the per-prefix range
// bounds are derived with direct uint32 arithmetic on the canonical
// network address instead of generic Last/NumAddresses calls.
func newPartitionSorted32(sorted []netaddr.Prefix) Partition {
	firsts := make([]netaddr.Addr, len(sorted))
	lasts := make([]netaddr.Addr, len(sorted))
	var space uint64
	for i, p := range sorted {
		size := uint64(1) << uint(32-p.Bits())
		f := p.Addr()
		firsts[i] = f
		lasts[i] = f + netaddr.Addr(size-1)
		space = addSat(space, size)
	}
	return Partition{prefixes: sorted, firsts: firsts, lasts: lasts, space: space}
}

// Len returns the number of prefixes in the partition.
func (p PartOf[A]) Len() int { return len(p.prefixes) }

// Prefix returns the i-th prefix in sorted order.
func (p PartOf[A]) Prefix(i int) netaddr.Pfx[A] { return p.prefixes[i] }

// Prefixes returns the sorted prefixes. The slice is shared; do not
// modify it.
func (p PartOf[A]) Prefixes() []netaddr.Pfx[A] { return p.prefixes }

// FirstAt returns the lowest address of the i-th prefix. It reads a
// cache built at partition construction, so unlike Prefix(i).First()
// it costs a slice load — counting walks call it once per address.
func (p PartOf[A]) FirstAt(i int) A { return p.firsts[i] }

// LastAt returns the highest address of the i-th prefix, from the same
// construction-time cache as FirstAt.
func (p PartOf[A]) LastAt(i int) A { return p.lasts[i] }

// Bounds returns the construction-time caches behind FirstAt and
// LastAt, indexed like Prefix(i). The slices are shared; do not modify
// them.
func (p PartOf[A]) Bounds() (firsts, lasts []A) { return p.firsts, p.lasts }

// AddressCount returns the total number of addresses covered,
// saturating at the maximum uint64 (IPv6 partitions routinely exceed
// it; use SpaceBits accounting there instead).
func (p PartOf[A]) AddressCount() uint64 { return p.space }

// Find locates the partition prefix containing a and returns its index.
func (p PartOf[A]) Find(a A) (int, bool) {
	// Rightmost prefix whose first address is <= a.
	i := sort.Search(len(p.firsts), func(i int) bool { return p.firsts[i].Compare(a) > 0 })
	if i == 0 {
		return 0, false
	}
	i--
	if p.prefixes[i].Contains(a) {
		return i, true
	}
	return 0, false
}

// CountAddrs counts, for each partition prefix, how many of the given
// addresses it contains. addrs must be sorted ascending. The returned
// slice is indexed like Prefix(i); the second result is the number of
// addresses that fell outside the partition.
func (p PartOf[A]) CountAddrs(addrs []A) (counts []int, outside int) {
	if p4, ok := any(p).(Partition); ok {
		// Concrete IPv4 walk: direct uint32 compares in the inner loop.
		// This merge visits every snapshot address, so the dictionary
		// calls of the generic path would be the dominant cost.
		return countAddrs32(p4, any(addrs).([]netaddr.Addr))
	}
	counts = make([]int, len(p.prefixes))
	i := 0 // partition cursor
	for _, a := range addrs {
		for i < len(p.lasts) && p.lasts[i].Compare(a) < 0 {
			i++
		}
		if i == len(p.firsts) || a.Compare(p.firsts[i]) < 0 {
			outside++
			continue
		}
		counts[i]++
	}
	return counts, outside
}

func countAddrs32(p Partition, addrs []netaddr.Addr) (counts []int, outside int) {
	counts = make([]int, len(p.prefixes))
	i := 0
	for _, a := range addrs {
		for i < len(p.lasts) && p.lasts[i] < a {
			i++
		}
		if i == len(p.firsts) || a < p.firsts[i] {
			outside++
			continue
		}
		counts[i]++
	}
	return counts, outside
}

// CountAddrsSet counts, for each partition prefix, how many addresses
// of the block-indexed set it contains, using one ascending range count
// per prefix. The counter gallops its block hint forward from prefix to
// prefix and decodes each boundary block at most once, so a K-prefix
// pass costs O(K log B + touched blocks) — sub-linear in the set size
// for sparse selections, where the O(N+K) merge walk re-touches every
// address. Results are identical to CountAddrs on the same addresses.
func (p PartOf[A]) CountAddrsSet(set *addrset.SetOf[A]) (counts []int, outside int) {
	counts = make([]int, len(p.prefixes))
	ctr := set.Counter()
	inside := 0
	for i := range p.prefixes {
		c := ctr.Count(p.firsts[i], p.lasts[i])
		counts[i] = c
		inside += c
	}
	return counts, set.Len() - inside
}

// Subset returns a new Partition containing the prefixes at the given
// indexes (e.g. a TASS selection). Indexes may be in any order.
func (p PartOf[A]) Subset(indexes []int) PartOf[A] {
	ps := make([]netaddr.Pfx[A], 0, len(indexes))
	for _, i := range indexes {
		ps = append(ps, p.prefixes[i])
	}
	netaddr.SortPfx(ps)
	return newPartitionSorted(ps)
}

// SubsetAscending returns the Partition of the prefixes at the given
// strictly ascending indexes. A partition's prefixes are sorted and
// pairwise disjoint, so any subset taken in index order already is too
// — no re-sort, no overlap check. It is the selection-construction hot
// path: an incremental reseed builds its scan plan with one pass here
// instead of a comparison sort over thousands of chosen prefixes.
func (p PartOf[A]) SubsetAscending(indexes []int32) PartOf[A] {
	if p4, ok := any(p).(Partition); ok {
		return any(subsetAscending32(p4, indexes)).(PartOf[A])
	}
	ps := make([]netaddr.Pfx[A], 0, len(indexes))
	firsts := make([]A, 0, len(indexes))
	lasts := make([]A, 0, len(indexes))
	var space uint64
	for _, i := range indexes {
		ps = append(ps, p.prefixes[i])
		firsts = append(firsts, p.firsts[i])
		lasts = append(lasts, p.lasts[i])
		space = addSat(space, p.prefixes[i].NumAddresses())
	}
	return PartOf[A]{prefixes: ps, firsts: firsts, lasts: lasts, space: space}
}

func subsetAscending32(p Partition, indexes []int32) Partition {
	n := len(indexes)
	ps := make([]netaddr.Prefix, n)
	firsts := make([]netaddr.Addr, n)
	lasts := make([]netaddr.Addr, n)
	var space uint64
	for k, i := range indexes {
		ps[k] = p.prefixes[i]
		f, l := p.firsts[i], p.lasts[i]
		firsts[k] = f
		lasts[k] = l
		space = addSat(space, uint64(l-f)+1)
	}
	return Partition{prefixes: ps, firsts: firsts, lasts: lasts, space: space}
}
