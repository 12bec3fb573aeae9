package census

import (
	"fmt"
	"io"

	"github.com/tass-scan/tass/internal/netaddr"
)

// DeltaOf is the churn between two snapshots of one protocol as sorted
// address runs: the representation that makes a month (or a scan cycle)
// cost O(changed addresses) instead of O(universe). Born lists the
// addresses responsive only in the later snapshot, Died those
// responsive only in the earlier one; both are strictly ascending and
// disjoint. ApplyDelta(from, d) reconstructs the later snapshot
// exactly, so a series can be stored and shipped as one full snapshot
// plus a delta per month.
type DeltaOf[A netaddr.Key[A]] struct {
	Protocol           string
	FromMonth, ToMonth int
	Born, Died         []A
}

// Delta is the IPv4 instantiation of DeltaOf.
type Delta = DeltaOf[netaddr.Addr]

// Changed returns the total number of changed addresses.
func (d *DeltaOf[A]) Changed() int { return len(d.Born) + len(d.Died) }

// Result summarizes the delta as the §3.3 churn decomposition,
// relative to the earlier snapshot's host count.
func (d *DeltaOf[A]) Result(fromHosts int) DiffResult {
	return DiffResult{Kept: fromHosts - len(d.Died), Lost: len(d.Died), New: len(d.Born)}
}

// Diff returns the delta from s to later: the born/died address runs a
// single merge walk over both snapshots produces. Both snapshots must
// belong to one protocol.
func (s *SnapshotOf[A]) Diff(later *SnapshotOf[A]) *DeltaOf[A] {
	if s4, ok := any(s).(*Snapshot); ok {
		return any(diff32(s4, any(later).(*Snapshot))).(*DeltaOf[A])
	}
	d := &DeltaOf[A]{Protocol: s.Protocol, FromMonth: s.Month, ToMonth: later.Month}
	a, b := s.addrsView(), later.addrsView()
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			d.Died = append(d.Died, a[i])
			i++
		case c > 0:
			d.Born = append(d.Born, b[j])
			j++
		default:
			i++
			j++
		}
	}
	d.Died = append(d.Died, a[i:]...)
	d.Born = append(d.Born, b[j:]...)
	return d
}

// diff32 is the concrete IPv4 merge walk behind Diff: churn extraction
// walks two full snapshots element by element, so the compares must
// stay direct uint32 operations.
func diff32(s, later *Snapshot) *Delta {
	d := &Delta{Protocol: s.Protocol, FromMonth: s.Month, ToMonth: later.Month}
	a, b := s.addrsView(), later.addrsView()
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			d.Died = append(d.Died, a[i])
			i++
		case a[i] > b[j]:
			d.Born = append(d.Born, b[j])
			j++
		default:
			i++
			j++
		}
	}
	d.Died = append(d.Died, a[i:]...)
	d.Born = append(d.Born, b[j:]...)
	return d
}

// ApplyDelta reconstructs the later snapshot from an earlier one and
// the delta between them: ApplyDelta(a, a.Diff(b)) equals b exactly.
// The address slice is rebuilt by one merge pass; a lazy earlier
// snapshot is decoded in full first, as Diff does. The result is always
// an eager snapshot that owns its addresses, so it stays valid after
// the earlier snapshot is closed.
//
// It errors when the delta does not fit the snapshot: protocol or month
// mismatch, a born address already present, or a died address missing.
// It also errors, with the typed *addrset.BlockError, when a lazy
// snapshot has a block that cannot be read, under either fault policy.
func ApplyDelta[A netaddr.Key[A]](from *SnapshotOf[A], d *DeltaOf[A]) (*SnapshotOf[A], error) {
	if d.Protocol != from.Protocol {
		return nil, fmt.Errorf("census: delta protocol %q does not match snapshot %q", d.Protocol, from.Protocol)
	}
	if d.FromMonth != from.Month {
		return nil, fmt.Errorf("census: delta from month %d does not match snapshot month %d", d.FromMonth, from.Month)
	}
	// A hand-assembled out-of-order run would otherwise merge into a
	// silently unsorted snapshot; the check costs O(changed), like the
	// merge itself.
	for _, run := range [2][]A{d.Born, d.Died} {
		for i := 1; i < len(run); i++ {
			if run[i].Compare(run[i-1]) <= 0 {
				return nil, fmt.Errorf("%w: delta run not strictly ascending at %v", ErrFormat, run[i])
			}
		}
	}
	// Merge by delta events, not by base elements: the unchanged runs
	// between consecutive born/died addresses — almost everything, at
	// realistic churn — are block-copied, so the merge costs
	// O(changed · log n) searches plus one pass of memmove instead of a
	// branch per address.
	base, born, died := from.addrsView(), d.Born, d.Died
	if faults := from.StorageFaults(); len(faults) > 0 {
		// The decode skipped a block it could not read: merging over it
		// would silently drop that block's survivors, whatever the fault
		// policy, and the eager result would keep no record of the loss.
		return nil, fmt.Errorf("census: %w", &faults[0])
	}
	capHint := len(base) + len(born) - len(died)
	if capHint < 0 {
		// More died addresses than the snapshot holds: the merge below
		// reports exactly which one is missing; the hint just must not
		// make make() panic first.
		capHint = 0
	}
	addrs := make([]A, 0, capHint)
	i, b, dd := 0, 0, 0
	for b < len(born) || dd < len(died) {
		var e A
		takeBorn := false
		if b < len(born) && (dd == len(died) || born[b].Compare(died[dd]) < 0) {
			e = born[b]
			takeBorn = true
		} else {
			e = died[dd]
		}
		p := netaddr.SeekKeys(base, i, e)
		addrs = append(addrs, base[i:p]...)
		i = p
		if takeBorn {
			if i < len(base) && base[i] == e {
				return nil, fmt.Errorf("census: delta born %v already in snapshot", e)
			}
			addrs = append(addrs, e)
			b++
		} else {
			if i == len(base) || base[i] != e {
				return nil, fmt.Errorf("census: delta died %v not in snapshot", e)
			}
			i++
			dd++
		}
	}
	addrs = append(addrs, base[i:]...)
	return &SnapshotOf[A]{Protocol: from.Protocol, Month: d.ToMonth, Addrs: addrs}, nil
}

// WriteTo serializes the delta as a v1 record with two runs, born
// then died (see codec.go). It implements io.WriterTo.
func (d *DeltaOf[A]) WriteTo(w io.Writer) (int64, error) {
	var zero A
	rw := newRecordWriter(w, deltaMagicFor(zero.Width()), d.Protocol, uint64(d.FromMonth), uint64(d.ToMonth))
	for _, run := range [2][]A{d.Born, d.Died} {
		startRun[A](rw, len(run), "delta ").add(run)
	}
	return rw.finish()
}

// ReadDelta parses one IPv4 delta from r. When r is already a
// *bufio.Reader it is used directly, so back-to-back records in one
// stream are not disturbed by read-ahead.
func ReadDelta(r io.Reader) (*Delta, error) {
	return ReadDeltaOf[netaddr.Addr](r)
}

// ReadDeltaOf parses one delta of family A from r; a delta of the other
// family fails the magic check.
func ReadDeltaOf[A netaddr.Key[A]](r io.Reader) (*DeltaOf[A], error) {
	br := bufReader(r)
	var zero A
	var months [2]uint64
	proto, err := readHeader(br, deltaMagicFor(zero.Width()), "delta ", months[:])
	if err != nil {
		return nil, err
	}
	d := &DeltaOf[A]{Protocol: proto, FromMonth: int(months[0]), ToMonth: int(months[1])}
	for _, run := range [2]*[]A{&d.Born, &d.Died} {
		count, err := readRunCount(br)
		if err != nil {
			return nil, err
		}
		if *run, err = readAddrRun[A](br, count, "delta "); err != nil {
			return nil, err
		}
	}
	// Born and died must be disjoint: check with one merge pass so a
	// parsed delta upholds the same invariants a Diff-produced one does.
	if a, ok := firstCommon(d.Born, d.Died); ok {
		return nil, fmt.Errorf("%w: address %v both born and died", ErrFormat, a)
	}
	return d, nil
}

// firstCommon returns the first address two strictly ascending runs
// share, by one merge pass; ok is false when they are disjoint.
func firstCommon[A netaddr.Key[A]](a, b []A) (common A, ok bool) {
	if a4, is4 := any(a).([]netaddr.Addr); is4 {
		// IPv4: direct integer compares, and a branch-free advance —
		// born and died interleave at random, so a branch on the order
		// would mispredict about every other step.
		b4 := any(b).([]netaddr.Addr)
		i, j := 0, 0
		for i < len(a4) && j < len(b4) {
			x, y := a4[i], b4[j]
			if x == y {
				return any(x).(A), true
			}
			lt := b2i(x < y)
			i += lt
			j += 1 - lt
		}
		return common, false
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return a[i], true
		}
	}
	return common, false
}

// b2i converts a bool to 0 or 1; the compiler lowers it to a flag move.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
