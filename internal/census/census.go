// Package census stores full-scan observations: for each protocol and
// month, the sorted set of responsive addresses. It plays the role of
// the censys.io snapshot archive in the paper — the ground truth that
// selection strategies are seeded from and evaluated against.
//
// Snapshots are generic over the address family (SnapshotOf); Snapshot
// is the IPv4 instantiation. They have two on-disk forms:
//
//   - The v1 stream (codec.go): a snapshot, and the churn delta between
//     two snapshots, are records of one layout — a family-tagged magic
//     ("TASSCNS"/"TASSCN6" for snapshots, "TASSDLT"/"TASSDL6" for
//     deltas), a protocol, header uvarints, then count-prefixed
//     ascending address runs in varint delta coding, typically ~1.5
//     bytes/host for IPv4. One writer and one batched run reader serve
//     both records. A reader can never silently decode a record of the
//     wrong family, and the IPv4 byte layout is unchanged from the
//     pre-generic codec.
//   - The indexed TASSNAP3 file (file.go): the same delta-coded
//     addresses in fixed-population blocks behind a checksummed block
//     directory, so OpenSnapshotFile serves a census lazily, decoding
//     blocks on demand.
package census

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// SnapshotOf is one full-scan observation: every responsive address for
// one protocol in one measurement month. Addrs is sorted and
// duplicate-free.
//
// Snapshots are handled by pointer (the lazily built set view carries a
// lock); use NewSnapshot or a &Snapshot{...} literal.
type SnapshotOf[A netaddr.Key[A]] struct {
	Protocol string
	Month    int
	Addrs    []A

	setMu sync.Mutex
	set   *addrset.SetOf[A] // memoized block-indexed view of Addrs

	// lazy marks a snapshot whose addresses live only in set (typically
	// a lazily-decoded view over a TASSNAP3 file): Addrs stays nil and
	// every counting/serialization path routes through the set. Use
	// Materialize to obtain an Addrs-backed copy when a caller needs the
	// slice itself.
	lazy bool

	// closer releases the storage backing a lazy snapshot (the mapped
	// census file); nil otherwise.
	closer io.Closer
}

// Snapshot is the IPv4 instantiation of SnapshotOf.
type Snapshot = SnapshotOf[netaddr.Addr]

// Set returns the block-indexed view of the snapshot's address set,
// building it on first use and memoizing it. The returned set is
// immutable and safe for concurrent use.
func (s *SnapshotOf[A]) Set() *addrset.SetOf[A] {
	s.setMu.Lock()
	defer s.setMu.Unlock()
	if s.set == nil {
		s.set = addrset.FromSorted(s.Addrs, 0)
	}
	return s.set
}

// sortFamily sorts an address slice ascending, routing IPv4 to the
// radix SortAddrs (the dominant cost of snapshot construction) and
// other families to the comparator sort.
func sortFamily[A netaddr.Key[A]](addrs []A) {
	if v4, ok := any(addrs).([]netaddr.Addr); ok {
		SortAddrs(v4)
		return
	}
	netaddr.SortKeys(addrs)
}

// NewSnapshot builds an IPv4 snapshot from addrs, copying, sorting and
// de-duplicating the input. It stays concrete so untyped nil inputs
// keep compiling; NewSnapshotOf is the family-generic constructor.
func NewSnapshot(protocol string, month int, addrs []netaddr.Addr) *Snapshot {
	return NewSnapshotOf(protocol, month, addrs)
}

// NewSnapshotOf builds a snapshot from addrs of any family, copying,
// sorting and de-duplicating the input.
func NewSnapshotOf[A netaddr.Key[A]](protocol string, month int, addrs []A) *SnapshotOf[A] {
	cp := make([]A, len(addrs))
	copy(cp, addrs)
	sortFamily(cp)
	w := 0
	for i, a := range cp {
		if i > 0 && cp[w-1] == a {
			continue
		}
		cp[w] = a
		w++
	}
	return &SnapshotOf[A]{Protocol: protocol, Month: month, Addrs: cp[:w]}
}

// NewSnapshotSorted wraps an already sorted, duplicate-free address
// slice without copying; the snapshot takes ownership of addrs. It is
// the zero-copy fast path behind the churn extraction arena; callers
// must uphold the ordering invariant (violations surface as a panic
// from the set builder or as wrong counts downstream).
func NewSnapshotSorted[A netaddr.Key[A]](protocol string, month int, addrs []A) *SnapshotOf[A] {
	return &SnapshotOf[A]{Protocol: protocol, Month: month, Addrs: addrs}
}

// Hosts returns the number of responsive addresses.
func (s *SnapshotOf[A]) Hosts() int {
	if s.lazy {
		return s.Set().Len()
	}
	return len(s.Addrs)
}

// Lazy reports whether the snapshot's addresses live only behind the
// block-indexed set view (Addrs is nil); see OpenSnapshotFile.
func (s *SnapshotOf[A]) Lazy() bool { return s.lazy }

// Close releases the storage backing a lazy snapshot (the mapped census
// file). It is a no-op for in-memory snapshots. The snapshot must not
// be used after Close.
func (s *SnapshotOf[A]) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c.Close()
}

// SetFaultPolicy sets how the snapshot's set view treats failed block
// reads (lazy snapshots only — eager snapshots never fault). FailFast,
// the default, makes StorageErr return the first fault so counting
// consumers refuse damaged results; Degrade keeps counting around
// damaged blocks and only records them (see StorageFaults). Set it
// before handing the snapshot to concurrent readers.
func (s *SnapshotOf[A]) SetFaultPolicy(p addrset.FaultPolicy) { s.Set().SetFaultPolicy(p) }

// StorageErr returns the storage fault a counting pass over this
// snapshot should surface: under FailFast the first block fault
// recorded so far (a *addrset.BlockError), under Degrade (or on a
// clean or eager snapshot) nil. Integrity-checking consumers call it
// after a pass over the set view.
func (s *SnapshotOf[A]) StorageErr() error {
	s.setMu.Lock()
	set := s.set
	s.setMu.Unlock()
	if set == nil {
		return nil
	}
	return set.ReadErr()
}

// StorageFaults returns every storage fault recorded against the
// snapshot's set view so far, one entry per damaged block, regardless
// of policy — under Degrade this is how a surviving consumer learns
// what its counts are missing.
func (s *SnapshotOf[A]) StorageFaults() []addrset.BlockError {
	s.setMu.Lock()
	set := s.set
	s.setMu.Unlock()
	if set == nil {
		return nil
	}
	return set.Faults()
}

// Materialize returns an Addrs-backed snapshot with the same contents:
// the receiver when it is already eager, otherwise a fully decoded copy
// (O(hosts) — the one operation a lazy snapshot cannot avoid paying in
// full). The copy shares the receiver's set view and stays valid only
// while the receiver is open.
func (s *SnapshotOf[A]) Materialize() *SnapshotOf[A] {
	if !s.lazy {
		return s
	}
	set := s.Set()
	return &SnapshotOf[A]{
		Protocol: s.Protocol,
		Month:    s.Month,
		Addrs:    set.AppendTo(make([]A, 0, set.Len())),
		set:      set,
	}
}

// addrsView returns the snapshot's addresses as a slice, decoding a
// lazy snapshot in full. Internal paths that genuinely need the slice
// (Diff's merge walk) go through here; counting paths must not.
func (s *SnapshotOf[A]) addrsView() []A {
	if s.lazy {
		set := s.Set()
		return set.AppendTo(make([]A, 0, set.Len()))
	}
	return s.Addrs
}

// Contains reports whether a responded in this snapshot.
func (s *SnapshotOf[A]) Contains(a A) bool {
	if s.lazy {
		return s.Set().Contains(a)
	}
	i := sort.Search(len(s.Addrs), func(i int) bool { return s.Addrs[i].Compare(a) >= 0 })
	return i < len(s.Addrs) && s.Addrs[i] == a
}

// CountByPrefix counts responsive addresses per partition prefix. The
// second result is the number of addresses outside the partition.
// Sparse partitions (few prefixes relative to the address count) are
// answered from the block index via per-prefix range counts; dense ones
// fall back to the merge walk, which wins when most addresses land in
// some prefix anyway (see DESIGN.md on the crossover).
func (s *SnapshotOf[A]) CountByPrefix(p rib.PartOf[A]) (counts []int, outside int) {
	if s.lazy || sparseFor(p.Len(), len(s.Addrs)) {
		return p.CountAddrsSet(s.Set())
	}
	return p.CountAddrs(s.Addrs)
}

// sparseFor reports whether the K-prefix/N-address shape favors the
// block-index range counts over the O(N+K) merge walk. A range count
// pays up to two boundary-block decodes per prefix (2·K·blocksize
// varints, each a few times the cost of the merge walk's compare), so
// the index only wins once that worst case sits clearly below N. The
// factor 8 is conservative: near the boundary both paths are within a
// small constant of each other either way (see DESIGN.md).
func sparseFor(prefixes, addrs int) bool {
	return prefixes*8*addrset.DefaultBlockSize < addrs
}

// CountIn returns how many of the snapshot's addresses fall inside the
// partition (e.g. a TASS selection). Neither path materializes the
// per-prefix count slice. Sparse selections — the reseed and hitrate
// shape: small K over large N — sum per-prefix range counts off the
// block index, two index lookups per prefix, O(K log B) instead of
// O(N+K); dense selections keep the merge walk, summing inline.
func (s *SnapshotOf[A]) CountIn(p rib.PartOf[A]) int {
	// The walks read the bounds slices once: a per-element FirstAt or
	// LastAt call would copy the partition header each time.
	firsts, lasts := p.Bounds()
	total := 0
	if s.lazy || sparseFor(len(firsts), len(s.Addrs)) {
		ctr := s.Set().Counter()
		for i, f := range firsts {
			total += ctr.Count(f, lasts[i])
		}
		return total
	}
	if a4, ok := any(s.Addrs).([]netaddr.Addr); ok {
		return countIn32(a4, any(firsts).([]netaddr.Addr), any(lasts).([]netaddr.Addr))
	}
	i := 0
	for _, a := range s.Addrs {
		for i < len(lasts) && lasts[i].Compare(a) < 0 {
			i++
		}
		if i == len(lasts) {
			break
		}
		if a.Compare(firsts[i]) >= 0 {
			total++
		}
	}
	return total
}

// countIn32 is the concrete IPv4 merge walk behind CountIn: it touches
// every snapshot address, so the inner compares must stay direct uint32
// operations on the partition's bounds rather than dictionary calls.
func countIn32(addrs, firsts, lasts []netaddr.Addr) int {
	total := 0
	i := 0
	n := len(lasts)
	for _, a := range addrs {
		for i < n && lasts[i] < a {
			i++
		}
		if i == n {
			break
		}
		if a >= firsts[i] {
			total++
		}
	}
	return total
}

// IntersectWith returns |s ∩ t|. Lopsided pairs (one snapshot far
// smaller than the other) use the galloping block-index intersection,
// which skips the large set's unique runs at block granularity;
// similar-sized pairs keep the element-wise merge, which wins when
// neither cursor can skip far (snapshots of adjacent months share most
// hosts).
func (s *SnapshotOf[A]) IntersectWith(t *SnapshotOf[A]) int {
	small, large := s, t
	if small.Hosts() > large.Hosts() {
		small, large = large, small
	}
	if s.lazy || t.lazy || small.Hosts()*16 < large.Hosts() {
		return small.Set().IntersectCount(large.Set())
	}
	return IntersectCount(s.Addrs, t.Addrs)
}

// IntersectCount returns |a ∩ b| for two sorted address sets.
func IntersectCount[A netaddr.Key[A]](a, b []A) int {
	if a4, ok := any(a).([]netaddr.Addr); ok {
		return intersectCount32(a4, any(b).([]netaddr.Addr))
	}
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func intersectCount32(a, b []netaddr.Addr) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// WriteTo serializes the snapshot as a v1 record with one run, its
// addresses (see codec.go). It implements io.WriterTo.
//
// A lazy snapshot streams off its block index, one block resident at a
// time. Its header has already promised every indexed address when a
// block turns out unreadable, so that fails the write with the
// *addrset.BlockError under either fault policy.
func (s *SnapshotOf[A]) WriteTo(w io.Writer) (int64, error) {
	var zero A
	rw := newRecordWriter(w, snapMagic(zero.Width()), s.Protocol, uint64(s.Month))
	run := startRun[A](rw, s.Hosts(), "")
	if !s.lazy {
		run.add(s.Addrs)
		return rw.finish()
	}
	s.Set().WalkBlocks(func(_ int, addrs []A, err error) bool {
		if err != nil {
			// The walk stops at the first failed add, so this is the
			// record's first error.
			rw.err = fmt.Errorf("census: %w", err)
			return false
		}
		return run.add(addrs)
	})
	return rw.finish()
}

// ReadSnapshot parses one IPv4 snapshot from r. When r is already a
// *bufio.Reader it is used directly, so back-to-back snapshots in one
// stream are not disturbed by read-ahead.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	return ReadSnapshotOf[netaddr.Addr](r)
}

// ReadSnapshotOf parses one snapshot of family A from r; a snapshot of
// the other family fails the magic check. When r is already a
// *bufio.Reader it is used directly, so back-to-back snapshots in one
// stream are not disturbed by read-ahead.
func ReadSnapshotOf[A netaddr.Key[A]](r io.Reader) (*SnapshotOf[A], error) {
	br := bufReader(r)
	var zero A
	var month [1]uint64
	proto, err := readHeader(br, snapMagic(zero.Width()), "", month[:])
	if err != nil {
		return nil, err
	}
	count, err := readRunCount(br)
	if err != nil {
		return nil, err
	}
	// Every address costs at least one byte on the wire, so a declared
	// count must be covered by at least that many remaining input bytes.
	// Peek as far as the read-ahead buffer allows before allocating
	// anything: a truncated header claiming millions of hosts fails here
	// instead of allocating and then erroring mid-decode.
	if want := min(count, br.Size()); want > 0 {
		if peeked, _ := br.Peek(want); len(peeked) < want {
			return nil, fmt.Errorf("%w: declared %d hosts but only %d bytes remain",
				ErrFormat, count, len(peeked))
		}
	}
	addrs, err := readAddrRun[A](br, count, "")
	if err != nil {
		return nil, err
	}
	return &SnapshotOf[A]{Protocol: proto, Month: int(month[0]), Addrs: addrs}, nil
}

// SeriesOf is the monthly snapshot sequence for one protocol, ordered
// by month.
type SeriesOf[A netaddr.Key[A]] struct {
	Protocol  string
	Snapshots []*SnapshotOf[A]
}

// Series is the IPv4 instantiation of SeriesOf.
type Series = SeriesOf[netaddr.Addr]

// Months returns the number of snapshots in the series.
func (s *SeriesOf[A]) Months() int { return len(s.Snapshots) }

// At returns the snapshot for the given month index.
func (s *SeriesOf[A]) At(month int) *SnapshotOf[A] { return s.Snapshots[month] }

// WriteTo serializes all snapshots back to back.
func (s *SeriesOf[A]) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, snap := range s.Snapshots {
		n, err := snap.WriteTo(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadSeries parses back-to-back IPv4 snapshots until EOF.
func ReadSeries(r io.Reader) (*Series, error) {
	return ReadSeriesOf[netaddr.Addr](r)
}

// ReadSeriesOf parses back-to-back snapshots of family A until EOF. All
// snapshots must belong to one protocol and be ordered by month.
func ReadSeriesOf[A netaddr.Key[A]](r io.Reader) (*SeriesOf[A], error) {
	br := bufio.NewReader(r)
	s := &SeriesOf[A]{}
	for {
		if _, err := br.Peek(1); errors.Is(err, io.EOF) {
			if len(s.Snapshots) == 0 {
				return nil, fmt.Errorf("%w: empty series", ErrFormat)
			}
			return s, nil
		}
		snap, err := ReadSnapshotOf[A](br)
		if err != nil {
			return nil, err
		}
		if s.Protocol == "" {
			s.Protocol = snap.Protocol
		} else if s.Protocol != snap.Protocol {
			return nil, fmt.Errorf("%w: mixed protocols %q and %q", ErrFormat, s.Protocol, snap.Protocol)
		}
		if n := len(s.Snapshots); n > 0 && s.Snapshots[n-1].Month >= snap.Month {
			return nil, fmt.Errorf("%w: months out of order", ErrFormat)
		}
		s.Snapshots = append(s.Snapshots, snap)
	}
}
