package census

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/tass-scan/tass/internal/addrset"
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

// Binary delta format, sharing the snapshot codec's conventions
// (including the family tag in the magic):
//
//	magic   [8]byte  "TASSDLT\x01" (IPv4) or "TASSDL6\x01" (IPv6)
//	proto   uvarint length + bytes
//	from    uvarint
//	to      uvarint
//	born    uvarint count, then count uvarints (first absolute, then deltas >= 1)
//	died    uvarint count, then count uvarints (first absolute, then deltas >= 1)
var (
	deltaMagic  = [8]byte{'T', 'A', 'S', 'S', 'D', 'L', 'T', 1}
	deltaMagic6 = [8]byte{'T', 'A', 'S', 'S', 'D', 'L', '6', 1}
)

// deltaMagicFor returns the delta magic for an address width.
func deltaMagicFor(width int) [8]byte {
	if width == 32 {
		return deltaMagic
	}
	return deltaMagic6
}

// WriteTo serializes the delta. It implements io.WriterTo.
func (d *DeltaOf[A]) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var n int64
	write := func(b []byte) error {
		m, err := bw.Write(b)
		n += int64(m)
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		return write(buf[:binary.PutUvarint(buf[:], v)])
	}
	var zero A
	m := deltaMagicFor(zero.Width())
	if err := write(m[:]); err != nil {
		return n, err
	}
	if err := putUvarint(uint64(len(d.Protocol))); err != nil {
		return n, err
	}
	if err := write([]byte(d.Protocol)); err != nil {
		return n, err
	}
	if err := putUvarint(uint64(d.FromMonth)); err != nil {
		return n, err
	}
	if err := putUvarint(uint64(d.ToMonth)); err != nil {
		return n, err
	}
	kbuf := make([]byte, 0, 19)
	for _, run := range [][]A{d.Born, d.Died} {
		if err := putUvarint(uint64(len(run))); err != nil {
			return n, err
		}
		prev := zero
		for i, a := range run {
			v := a
			if i > 0 {
				if a.Compare(prev) <= 0 {
					return n, fmt.Errorf("%w: delta addresses not strictly ascending", ErrFormat)
				}
				v = netaddr.KeySub(a, prev)
			}
			if err := write(netaddr.AppendKeyUvarint(kbuf[:0], v)); err != nil {
				return n, err
			}
			prev = a
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
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
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var zero A
	want := deltaMagicFor(zero.Width())
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("census: reading delta magic: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("%w: bad delta magic %q", ErrFormat, got[:])
	}
	protoLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	if protoLen > 255 {
		return nil, fmt.Errorf("%w: protocol name length %d", ErrFormat, protoLen)
	}
	proto := make([]byte, protoLen)
	if _, err := io.ReadFull(br, proto); err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	from, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	to, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	d := &DeltaOf[A]{Protocol: string(proto), FromMonth: int(from), ToMonth: int(to)}
	for side := 0; side < 2; side++ {
		run, err := readAddrRun[A](br)
		if err != nil {
			return nil, err
		}
		if side == 0 {
			d.Born = run
		} else {
			d.Died = run
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

// readAddrRun decodes one length-prefixed strictly-ascending address
// run, with the same attacker-controlled-count allocation cap as the
// snapshot codec. Families up to 64 bits batch-decode the run from the
// reader's buffered window (readNarrowRun); wider ones read it one
// varint at a time.
func readAddrRun[A netaddr.Key[A]](br *bufio.Reader) ([]A, error) {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	if count > 1<<32 {
		return nil, fmt.Errorf("%w: impossible address count %d", ErrFormat, count)
	}
	capHint := int(count)
	if capHint > maxAddrPrealloc {
		capHint = maxAddrPrealloc
	}
	addrs := make([]A, 0, capHint)
	var zero A
	if zero.Width() <= 64 {
		return readNarrowRun(br, addrs, int(count))
	}
	var prev A
	for i := 0; i < int(count); i++ {
		v, err := readRunAddr(br, i, prev)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, v)
		prev = v
	}
	return addrs, nil
}

// readRunAddr reads run element i through the scalar varint reader: the
// absolute first address, or the delta onto prev after it. Every
// element the batch path cannot decode from the buffered window comes
// through here, so both paths share one set of checks and messages.
func readRunAddr[A netaddr.Key[A]](br *bufio.Reader, i int, prev A) (A, error) {
	var zero A
	d, err := netaddr.ReadKeyUvarint[A](br)
	if err != nil {
		if errors.Is(err, netaddr.ErrOverflow) {
			return zero, fmt.Errorf("%w: address overflow", ErrFormat)
		}
		return zero, fmt.Errorf("census: delta address %d: %w", i, err)
	}
	if i == 0 {
		return d, nil
	}
	if d == zero {
		return zero, fmt.Errorf("%w: zero delta", ErrFormat)
	}
	v := netaddr.KeyAdd(prev, d)
	if v.Compare(prev) <= 0 {
		return zero, fmt.Errorf("%w: address overflow", ErrFormat)
	}
	return v, nil
}

// runChunk is how many varints readNarrowRun decodes per batch: the
// uint64 scratch stays on the stack and the window it peeks stays a few
// cache lines.
const runChunk = 128

// readNarrowRun appends count run elements of a ≤64-bit family to addrs.
// It batch-decodes whole varints straight out of the reader's buffered
// window (Peek of at most Buffered bytes never reads, Discard consumes
// exactly the decoded bytes) through addrset.DecodeUvarints. A value
// the window cannot hold whole, or that the kernel rejects, is read by
// readRunAddr — the scalar reader the run used before batching — so the
// batch path never consumes, or blocks on, a byte the scalar path would
// not have read, and back-to-back records in one stream stay intact.
// The checks are the scalar path's: width, zero delta, overflow, strict
// ascent.
func readNarrowRun[A netaddr.Key[A]](br *bufio.Reader, addrs []A, count int) ([]A, error) {
	var zero A
	wide := ^uint64(0) >> (64 - zero.Width()) // largest value of the family
	var scratch [runChunk]uint64
	var prev uint64
	for i := 0; i < count; {
		c := count - i
		if c > runChunk {
			c = runChunk
		}
		win := br.Buffered()
		if win > c*binary.MaxVarintLen64 {
			win = c * binary.MaxVarintLen64
		}
		buf, _ := br.Peek(win) // win <= Buffered(): no read, no error
		n := addrset.DecodeUvarints(scratch[:c], buf)
		if n < 0 {
			// The window ends inside a value or holds one the kernel
			// rejects: take the whole values before it.
			c, n = 0, 0
			for c < len(scratch) && i+c < count {
				v, m := binary.Uvarint(buf[n:])
				if m <= 0 {
					break
				}
				scratch[c] = v
				c++
				n += m
			}
		}
		if c == 0 {
			v, err := readRunAddr(br, i, zero.FromHalves(0, prev))
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, v)
			_, prev = v.Halves()
			i++
			continue
		}
		for k, d := range scratch[:c] {
			if d > wide {
				return nil, fmt.Errorf("%w: address overflow", ErrFormat)
			}
			v := d
			if i+k > 0 {
				if d == 0 {
					return nil, fmt.Errorf("%w: zero delta", ErrFormat)
				}
				v = prev + d
				if v < prev || v > wide {
					return nil, fmt.Errorf("%w: address overflow", ErrFormat)
				}
			}
			scratch[k] = v
			prev = v
		}
		addrs = appendLows(addrs, scratch[:c])
		br.Discard(n) // n peeked bytes: cannot fail
		i += c
	}
	return addrs, nil
}

// appendLows appends the ≤64-bit family values vs to dst; IPv4 runs
// convert with a plain integer cast instead of a FromHalves call each.
func appendLows[A netaddr.Key[A]](dst []A, vs []uint64) []A {
	if d4, ok := any(dst).([]netaddr.Addr); ok {
		for _, v := range vs {
			d4 = append(d4, netaddr.Addr(v))
		}
		return any(d4).([]A)
	}
	var zero A
	for _, v := range vs {
		dst = append(dst, zero.FromHalves(0, v))
	}
	return dst
}
