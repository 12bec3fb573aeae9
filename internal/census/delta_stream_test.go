package census

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"

	"github.com/tass-scan/tass/internal/netaddr"
)

// refReadDeltaOf is the per-byte delta reader the batched decode
// replaced, kept verbatim as the differential reference: every address
// goes through bufio.ReadByte and netaddr.ReadKeyUvarint, and the
// born/died disjointness merge compares through the generic Compare.
func refReadDeltaOf[A netaddr.Key[A]](br *bufio.Reader) (*DeltaOf[A], error) {
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
		run, err := refReadAddrRun[A](br)
		if err != nil {
			return nil, err
		}
		if side == 0 {
			d.Born = run
		} else {
			d.Died = run
		}
	}
	i, j := 0, 0
	for i < len(d.Born) && j < len(d.Died) {
		switch c := d.Born[i].Compare(d.Died[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return nil, fmt.Errorf("%w: address %v both born and died", ErrFormat, d.Born[i])
		}
	}
	return d, nil
}

func refReadAddrRun[A netaddr.Key[A]](br *bufio.Reader) ([]A, error) {
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
	var zero, prev A
	for i := 0; i < int(count); i++ {
		d, err := netaddr.ReadKeyUvarint[A](br)
		if err != nil {
			if errors.Is(err, netaddr.ErrOverflow) {
				return nil, fmt.Errorf("%w: address overflow", ErrFormat)
			}
			return nil, fmt.Errorf("census: delta address %d: %w", i, err)
		}
		v := d
		if i > 0 {
			if d == zero {
				return nil, fmt.Errorf("%w: zero delta", ErrFormat)
			}
			v = netaddr.KeyAdd(prev, d)
			if v.Compare(prev) <= 0 {
				return nil, fmt.Errorf("%w: address overflow", ErrFormat)
			}
		}
		addrs = append(addrs, v)
		prev = v
	}
	return addrs, nil
}

// streamShapes are the underlying readers the differential runs under:
// whole-buffer reads, one byte per Read, and half of each request, so
// the batch path sees every possible buffered-window boundary.
var streamShapes = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// diffDeltaReaders reads data as one delta of family A with the batched
// reader and with the per-byte reference, under every stream shape and
// at the smallest and the default bufio size. Both must accept or
// reject alike — the same error text — decode identical deltas, and on
// success leave the stream at the same byte.
func diffDeltaReaders[A netaddr.Key[A]](t *testing.T, data []byte) {
	t.Helper()
	for _, sh := range streamShapes {
		for _, size := range []int{16, 1 << 16} {
			br := bufio.NewReaderSize(sh.wrap(bytes.NewReader(data)), size)
			rr := bufio.NewReaderSize(sh.wrap(bytes.NewReader(data)), size)
			got, gerr := ReadDeltaOf[A](br)
			want, werr := refReadDeltaOf[A](rr)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("%s/%d: batched error %v, reference error %v", sh.name, size, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if got.Protocol != want.Protocol || got.FromMonth != want.FromMonth || got.ToMonth != want.ToMonth ||
				!slices.Equal(got.Born, want.Born) || !slices.Equal(got.Died, want.Died) {
				t.Fatalf("%s/%d: batched and reference deltas differ", sh.name, size)
			}
			restB, _ := io.ReadAll(br)
			restR, _ := io.ReadAll(rr)
			if !bytes.Equal(restB, restR) {
				t.Fatalf("%s/%d: batched reader left %d bytes, reference %d", sh.name, size, len(restB), len(restR))
			}
		}
	}
}

// TestReadDeltaStreamShapes round-trips churn deltas through readers
// that return one byte or half a request per Read.
func TestReadDeltaStreamShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomSnapshot(rng, "http", 0, 20000, 1<<30)
	d := a.Diff(churned(rng, a, 1, 0.3, 1<<30))
	data := encodeDelta(t, d)
	for _, sh := range streamShapes {
		got, err := ReadDelta(sh.wrap(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		if !slices.Equal(got.Born, d.Born) || !slices.Equal(got.Died, d.Died) {
			t.Fatalf("%s: delta changed in the round trip", sh.name)
		}
	}
	diffDeltaReaders[netaddr.Addr](t, data)
}

// TestReadDeltaBufferEdge places multi-byte varints across the 64 KiB
// edge of ReadDelta's own bufio.Reader: the protocol name shifts the
// run by one byte per case, so every byte of a 3- or 4-byte varint
// lands on the edge.
func TestReadDeltaBufferEdge(t *testing.T) {
	// Gaps of 2^14..2^16 (3-byte varints) with one in 64 past 2^21 (4
	// bytes): enough addresses to run well past 64 KiB inside 32 bits.
	rng := rand.New(rand.NewSource(18))
	born := make([]netaddr.Addr, 0, 30000)
	v := uint64(0)
	for len(born) < cap(born) {
		gap := 1<<14 + uint64(rng.Intn(1<<15))
		if rng.Intn(64) == 0 {
			gap += 1 << 21
		}
		v += gap
		born = append(born, netaddr.Addr(v))
	}
	for shift := 0; shift < 6; shift++ {
		d := &Delta{Protocol: string(bytes.Repeat([]byte{'p'}, shift)), FromMonth: 1, ToMonth: 2, Born: born}
		data := encodeDelta(t, d)
		if len(data) <= 1<<16 {
			t.Fatalf("stream of %d bytes does not cross the buffer edge", len(data))
		}
		got, err := ReadDelta(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if !slices.Equal(got.Born, born) || len(got.Died) != 0 {
			t.Fatalf("shift %d: delta changed in the round trip", shift)
		}
		diffDeltaReaders[netaddr.Addr](t, data)
	}
}

// TestReadDeltaBackToBack reads two records from one *bufio.Reader: the
// batched decode must consume exactly the first record, never bytes of
// the second, whatever the underlying reader hands over per Read.
func TestReadDeltaBackToBack(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randomSnapshot(rng, "ftp", 0, 5000, 1<<28)
	b := churned(rng, a, 1, 0.2, 1<<28)
	c := churned(rng, b, 2, 0.2, 1<<28)
	d1, d2 := a.Diff(b), b.Diff(c)
	stream := append(encodeDelta(t, d1), encodeDelta(t, d2)...)
	for _, sh := range streamShapes {
		for _, size := range []int{16, 4096, 1 << 16} {
			br := bufio.NewReaderSize(sh.wrap(bytes.NewReader(stream)), size)
			for k, want := range []*Delta{d1, d2} {
				got, err := ReadDelta(br)
				if err != nil {
					t.Fatalf("%s/%d: record %d: %v", sh.name, size, k, err)
				}
				if got.FromMonth != want.FromMonth || !slices.Equal(got.Born, want.Born) || !slices.Equal(got.Died, want.Died) {
					t.Fatalf("%s/%d: record %d changed in the round trip", sh.name, size, k)
				}
			}
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("%s/%d: stream not at EOF after two records (err %v)", sh.name, size, err)
			}
		}
	}
}

// TestFirstCommonMatchesGeneric checks the IPv4 disjointness merge
// against the generic comparator walk (run on the same values as IPv6
// keys) and a brute-force set lookup.
func TestFirstCommonMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	run := func(n int) []netaddr.Addr {
		seen := map[netaddr.Addr]bool{}
		var out []netaddr.Addr
		for len(out) < n {
			a := netaddr.Addr(rng.Intn(4 * (n + 1)))
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
		slices.Sort(out)
		return out
	}
	widen := func(r []netaddr.Addr) []netaddr.Addr6 {
		out := make([]netaddr.Addr6, len(r))
		for i, a := range r {
			out[i] = netaddr.Addr6{Lo: uint64(a)}
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := run(rng.Intn(40)), run(rng.Intn(40))
		got, ok := firstCommon(a, b)
		got6, ok6 := firstCommon(widen(a), widen(b))
		var want netaddr.Addr
		wantOK := false
		for _, x := range a {
			if slices.Contains(b, x) {
				want, wantOK = x, true
				break
			}
		}
		if ok != wantOK || ok6 != wantOK || (wantOK && (got != want || got6.Lo != uint64(want))) {
			t.Fatalf("firstCommon(%v, %v) = %v,%v (generic %v,%v), want %v,%v", a, b, got, ok, got6, ok6, want, wantOK)
		}
	}
}

// trapReader stands for the bytes a live stream has not sent yet: any
// Read of it is a read the scalar decoder would not have made, which on
// a socket blocks until the peer sends the next record.
type trapReader struct{ reads int }

func (r *trapReader) Read([]byte) (int, error) {
	r.reads++
	return 0, io.EOF
}

// TestReadDeltaStopsAtRecordEnd reads one record from a stream whose
// next bytes are not there yet: the reader must return the delta
// without asking the underlying reader for anything past the record.
func TestReadDeltaStopsAtRecordEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomSnapshot(rng, "ftp", 0, 3000, 1<<24)
	d := a.Diff(churned(rng, a, 1, 0.2, 1<<24))
	rec := encodeDelta(t, d)
	for _, sh := range streamShapes {
		for _, size := range []int{16, 4096, 1 << 16} {
			trap := &trapReader{}
			br := bufio.NewReaderSize(sh.wrap(io.MultiReader(bytes.NewReader(rec), trap)), size)
			got, err := ReadDelta(br)
			if err != nil {
				t.Fatalf("%s/%d: %v", sh.name, size, err)
			}
			if !slices.Equal(got.Born, d.Born) || !slices.Equal(got.Died, d.Died) {
				t.Fatalf("%s/%d: delta changed in the round trip", sh.name, size)
			}
			if trap.reads != 0 {
				t.Fatalf("%s/%d: read past the end of the record", sh.name, size)
			}
		}
	}
}
