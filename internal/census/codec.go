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

// The v1 stream records, a snapshot and a delta, share one layout and
// one codec:
//
//	magic   [8]byte  family-tagged, see below
//	proto   uvarint length + bytes
//	fields  header uvarints: a snapshot's month; a delta's from and to
//	        months
//	runs    per run: uvarint count, then count uvarints, the first
//	        address absolute and every later one its delta (>= 1) onto
//	        the address before it
//
// A snapshot holds one run, its addresses; a delta holds two, born then
// died. Address uvarints are LEB128 of the full family width: for IPv4
// the bytes coincide with encoding/binary's PutUvarint, so pre-generic
// files read back unchanged; IPv6 deltas may span up to 19 bytes.
var (
	magic       = [8]byte{'T', 'A', 'S', 'S', 'C', 'N', 'S', 1}
	magic6      = [8]byte{'T', 'A', 'S', 'S', 'C', 'N', '6', 1}
	deltaMagic  = [8]byte{'T', 'A', 'S', 'S', 'D', 'L', 'T', 1}
	deltaMagic6 = [8]byte{'T', 'A', 'S', 'S', 'D', 'L', '6', 1}
)

// snapMagic returns the snapshot magic for an address width.
func snapMagic(width int) [8]byte {
	if width == 32 {
		return magic
	}
	return magic6
}

// deltaMagicFor returns the delta magic for an address width.
func deltaMagicFor(width int) [8]byte {
	if width == 32 {
		return deltaMagic
	}
	return deltaMagic6
}

// ErrFormat reports a malformed snapshot stream.
var ErrFormat = errors.New("census: malformed snapshot")

// recordWriter writes one v1 record through a 64 KiB buffer, counting
// the bytes it hands on. The first error sticks: later writes are
// dropped, and finish returns it.
type recordWriter struct {
	bw  *bufio.Writer
	n   int64
	err error
	buf [19]byte // one LEB128 value of up to 128 bits
}

// newRecordWriter starts a record on w with its magic, protocol and
// header fields.
func newRecordWriter(w io.Writer, magic [8]byte, proto string, fields ...uint64) *recordWriter {
	rw := &recordWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	rw.write(magic[:])
	rw.uvarint(uint64(len(proto)))
	rw.write([]byte(proto))
	for _, f := range fields {
		rw.uvarint(f)
	}
	return rw
}

func (w *recordWriter) write(b []byte) {
	if w.err == nil {
		m, err := w.bw.Write(b)
		w.n += int64(m)
		w.err = err
	}
}

func (w *recordWriter) uvarint(v uint64) { w.write(w.buf[:binary.PutUvarint(w.buf[:], v)]) }

// finish flushes the record and returns the bytes written and the
// first error.
func (w *recordWriter) finish() (int64, error) {
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.n, w.err
}

// runWriter encodes one run of a record, fed in ascending pieces.
type runWriter[A netaddr.Key[A]] struct {
	w     *recordWriter
	label string // "delta " or "", for error messages
	prev  A
	n     int
}

// startRun writes a run's count; the run's addresses follow through add.
func startRun[A netaddr.Key[A]](w *recordWriter, count int, label string) *runWriter[A] {
	w.uvarint(uint64(count))
	return &runWriter[A]{w: w, label: label}
}

// add encodes the next addresses of the run, which must continue it in
// strictly ascending order. It reports whether the record is still
// writable.
func (r *runWriter[A]) add(addrs []A) bool {
	w, prev, n := r.w, r.prev, r.n
	if w.err != nil {
		return false
	}
	// The hot loop of both writers: bytes are counted locally and the
	// buffered writer is called directly, one varint at a time.
	written := 0
	for _, a := range addrs {
		v := a
		if n > 0 {
			if a.Compare(prev) <= 0 {
				w.err = fmt.Errorf("%w: %saddresses not strictly ascending", ErrFormat, r.label)
				break
			}
			v = netaddr.KeySub(a, prev)
		}
		m, err := w.bw.Write(netaddr.AppendKeyUvarint(w.buf[:0], v))
		written += m
		if err != nil {
			w.err = err
			break
		}
		prev = a
		n++
	}
	w.n += int64(written)
	r.prev, r.n = prev, n
	return w.err == nil
}

// bufReader returns r as a *bufio.Reader, wrapping it only when it is
// not one already, so back-to-back records in one stream are not
// disturbed by read-ahead.
func bufReader(r io.Reader) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReaderSize(r, 1<<16)
}

// readHeader reads a record's magic, which must be want, its protocol,
// and len(fields) header uvarints into fields.
func readHeader(br *bufio.Reader, want [8]byte, label string, fields []uint64) (proto string, err error) {
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return "", fmt.Errorf("census: reading %smagic: %w", label, err)
	}
	if got != want {
		return "", fmt.Errorf("%w: bad %smagic %q", ErrFormat, label, got[:])
	}
	protoLen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("census: %w", err)
	}
	if protoLen > 255 {
		return "", fmt.Errorf("%w: protocol name length %d", ErrFormat, protoLen)
	}
	b := make([]byte, protoLen)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", fmt.Errorf("census: %w", err)
	}
	for i := range fields {
		if fields[i], err = binary.ReadUvarint(br); err != nil {
			return "", fmt.Errorf("census: %w", err)
		}
	}
	return string(b), nil
}

// readRunCount reads the count that opens a run.
func readRunCount(br *bufio.Reader) (int, error) {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("census: %w", err)
	}
	if count > 1<<32 {
		return 0, fmt.Errorf("%w: impossible address count %d", ErrFormat, count)
	}
	return int(count), nil
}

// maxAddrPrealloc caps the address-slice allocation made before any
// address of a run has decoded (1 MiB worth of IPv4 addresses).
const maxAddrPrealloc = 1 << 18

// readAddrRun decodes the count addresses of a strictly ascending run.
// The count is attacker-controlled until the addresses actually decode,
// so the up-front allocation is capped and the slice grows while
// decoding. Families up to 64 bits batch-decode the run from the
// reader's buffered window (readNarrowRun); wider ones read it one
// varint at a time.
func readAddrRun[A netaddr.Key[A]](br *bufio.Reader, count int, label string) ([]A, error) {
	addrs := make([]A, 0, min(count, maxAddrPrealloc))
	var zero A
	if zero.Width() <= 64 {
		return readNarrowRun(br, addrs, count, label)
	}
	var prev A
	for i := 0; i < count; i++ {
		v, err := readRunAddr(br, i, prev, label)
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
func readRunAddr[A netaddr.Key[A]](br *bufio.Reader, i int, prev A, label string) (A, error) {
	var zero A
	d, err := netaddr.ReadKeyUvarint[A](br)
	if err != nil {
		if errors.Is(err, netaddr.ErrOverflow) {
			return zero, fmt.Errorf("%w: address overflow", ErrFormat)
		}
		return zero, fmt.Errorf("census: %saddress %d: %w", label, i, err)
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
// readRunAddr — the scalar reader — so the batch path never consumes,
// or blocks on, a byte the scalar path would not have read, and
// back-to-back records in one stream stay intact. The checks are the
// scalar path's: width, zero delta, overflow, strict ascent.
func readNarrowRun[A netaddr.Key[A]](br *bufio.Reader, addrs []A, count int, label string) ([]A, error) {
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
			v, err := readRunAddr(br, i, zero.FromHalves(0, prev), label)
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
