package netaddr

import (
	"errors"
	"io"
	"slices"
)

// Key is the constraint every address family satisfies: a fixed-width
// unsigned integer exposed as two 64-bit halves. Addr (32-bit IPv4) and
// Addr6 (128-bit IPv6) implement it, and everything built on addresses
// — prefixes, block-indexed sets, census snapshots, partitions, the
// ranking core — is generic over it, so one engine serves both
// families.
//
// The method set is deliberately tiny: Compare for ordering, the
// Halves/FromHalves pair for arithmetic, Width for the bit width and
// String for diagnostics. All bit manipulation (masks, shifts, wrapping
// add/sub, varint coding) lives in the generic helpers of this file,
// written once against uint64 halves, so per-family code is limited to
// parsing and formatting.
type Key[A any] interface {
	comparable
	// Compare orders values numerically and returns -1, 0 or +1.
	Compare(A) int
	// Halves returns the value as (hi, lo) 64-bit halves. Families
	// narrower than 64 bits return hi == 0 and the value in lo.
	Halves() (hi, lo uint64)
	// FromHalves assembles a value from halves, discarding bits above
	// the family width. The receiver is ignored (call it on the zero
	// value); it exists because Go constraints cannot express
	// constructors.
	FromHalves(hi, lo uint64) A
	// Width returns the family's address width in bits (32 or 128).
	Width() int
	String() string
}

// Halves implements Key; the IPv4 value lives in the low half.
func (a Addr) Halves() (hi, lo uint64) { return 0, uint64(a) }

// FromHalves implements Key, truncating to 32 bits.
func (Addr) FromHalves(hi, lo uint64) Addr { return Addr(uint32(lo)) }

// Width implements Key: IPv4 addresses are 32 bits wide.
func (Addr) Width() int { return 32 }

// Compare orders addresses numerically and returns -1, 0 or +1.
func (a Addr) Compare(b Addr) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Compare orders addresses numerically and returns -1, 0 or +1.
func (a Addr6) Compare(b Addr6) int {
	switch {
	case a.Hi < b.Hi:
		return -1
	case a.Hi > b.Hi:
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	}
	return 0
}

// Halves implements Key.
func (a Addr6) Halves() (hi, lo uint64) { return a.Hi, a.Lo }

// FromHalves implements Key.
func (Addr6) FromHalves(hi, lo uint64) Addr6 { return Addr6{Hi: hi, Lo: lo} }

// Width implements Key: IPv6 addresses are 128 bits wide.
func (Addr6) Width() int { return 128 }

// widthMask returns the (hi, lo) mask selecting the low w value bits.
func widthMask(w int) (hi, lo uint64) {
	switch {
	case w >= 128:
		return ^uint64(0), ^uint64(0)
	case w >= 64:
		if w == 64 {
			return 0, ^uint64(0)
		}
		return 1<<uint(w-64) - 1, ^uint64(0)
	default:
		return 0, 1<<uint(w) - 1
	}
}

// maskHalves returns the w-bit netmask of the given prefix length as
// (hi, lo) halves: the top `bits` value bits set, the rest clear.
func maskHalves(w, bits int) (hi, lo uint64) {
	if bits <= 0 {
		return 0, 0
	}
	if bits > w {
		bits = w
	}
	wh, wl := widthMask(w)
	if w <= 64 {
		return 0, wl &^ (1<<uint(w-bits) - 1)
	}
	// 128-bit family.
	if bits <= 64 {
		if bits == 64 {
			return wh, 0
		}
		return wh &^ (1<<uint(64-bits) - 1), 0
	}
	if bits >= 128 {
		return wh, wl
	}
	return wh, wl &^ (1<<uint(128-bits) - 1)
}

// KeyAdd returns a+b wrapping at the family width.
func KeyAdd[A Key[A]](a, b A) A {
	ah, al := a.Halves()
	bh, bl := b.Halves()
	lo := al + bl
	hi := ah + bh
	if lo < al {
		hi++
	}
	var z A
	return z.FromHalves(hi, lo)
}

// KeySub returns a-b wrapping at the family width.
func KeySub[A Key[A]](a, b A) A {
	ah, al := a.Halves()
	bh, bl := b.Halves()
	lo := al - bl
	hi := ah - bh
	if al < bl {
		hi--
	}
	var z A
	return z.FromHalves(hi, lo)
}

// KeyDec returns a-1 wrapping at the family width.
func KeyDec[A Key[A]](a A) A {
	var z A
	return KeySub(a, z.FromHalves(0, 1))
}

// KeyInc returns a+1 wrapping at the family width.
func KeyInc[A Key[A]](a A) A {
	var z A
	return KeyAdd(a, z.FromHalves(0, 1))
}

// KeyMax returns the all-ones value of the family (the top of the key
// space: 255.255.255.255, or ff…ff for IPv6).
func KeyMax[A Key[A]]() A {
	var z A
	return z.FromHalves(widthMask(z.Width()))
}

// SortKeys sorts addresses ascending with a comparator sort. The IPv4
// census path keeps its radix SortAddrs; this is the generic fallback
// for families without a specialized sort.
func SortKeys[A Key[A]](s []A) {
	slices.SortFunc(s, func(a, b A) int { return a.Compare(b) })
}

// SeekKeys is SeekAddrs for any address family: the first index at or
// after from whose address is >= target, found by a short linear scan,
// then a gallop, then a binary search. IPv4 slices are routed to the
// concrete SeekAddrs (inlined uint32 compares on the delta-merge hot
// path); the results are identical.
func SeekKeys[A Key[A]](addrs []A, from int, target A) int {
	if v4, ok := any(addrs).([]Addr); ok {
		return SeekAddrs(v4, from, any(target).(Addr))
	}
	n := len(addrs)
	lim := from + 32
	if lim > n {
		lim = n
	}
	for ; from < lim; from++ {
		if addrs[from].Compare(target) >= 0 {
			return from
		}
	}
	if from >= n || addrs[from].Compare(target) >= 0 {
		return from
	}
	step := 1
	lo := from
	hi := from + 1
	for hi < n && addrs[hi].Compare(target) < 0 {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if addrs[mid].Compare(target) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// ErrOverflow reports a varint-decoded value that does not fit the
// family width.
var ErrOverflow = errors.New("netaddr: varint value overflows address width")

// AppendKeyUvarint appends the LEB128 encoding of a to dst. For values
// below 2^64 the bytes are identical to encoding/binary's PutUvarint,
// so the IPv4 wire and block formats are unchanged by the generic
// codec; 128-bit values extend the same scheme to at most 19 bytes.
func AppendKeyUvarint[A Key[A]](dst []byte, a A) []byte {
	hi, lo := a.Halves()
	for hi != 0 || lo >= 0x80 {
		dst = append(dst, byte(lo)|0x80)
		lo = lo>>7 | hi<<57
		hi >>= 7
	}
	return append(dst, byte(lo))
}

// DecodeKeyUvarint decodes one LEB128 value from src and returns it
// with the number of bytes read, mirroring binary.Uvarint: n == 0 means
// src was truncated, n < 0 an encoding wider than 128 bits (the value
// is meaningless in both cases). Bits above the family width are
// discarded — block streams are trusted; wire decoding validates with
// ReadKeyUvarint instead.
func DecodeKeyUvarint[A Key[A]](src []byte) (A, int) {
	var z A
	var hi, lo uint64
	var shift uint
	for i, b := range src {
		v := uint64(b & 0x7f)
		switch {
		case shift < 64:
			lo |= v << shift
			if shift > 57 {
				hi |= v >> (64 - shift)
			}
		case shift < 128:
			hi |= v << (shift - 64)
		default:
			return z, -(i + 1)
		}
		if b < 0x80 {
			return z.FromHalves(hi, lo), i + 1
		}
		shift += 7
	}
	return z, 0
}

// ReadKeyUvarint reads one LEB128 value from r and validates that it
// fits the family width, returning ErrOverflow otherwise. It is the
// codec-side counterpart of DecodeKeyUvarint: wire input is untrusted,
// so a 64-bit-overflowing delta in an IPv4 stream must error, not wrap.
func ReadKeyUvarint[A Key[A]](r io.ByteReader) (A, error) {
	var z A
	var hi, lo uint64
	var shift uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return z, err
		}
		v := uint64(b & 0x7f)
		switch {
		case shift < 64:
			lo |= v << shift
			if shift > 57 && v>>(64-shift) != 0 {
				hi |= v >> (64 - shift)
			}
		case shift < 128:
			if shift > 121 && v>>(128-shift) != 0 {
				return z, ErrOverflow
			}
			hi |= v << (shift - 64)
		default:
			return z, ErrOverflow
		}
		if b < 0x80 {
			break
		}
		shift += 7
	}
	w := z.Width()
	wh, wl := widthMask(w)
	if hi&^wh != 0 || lo&^wl != 0 {
		return z, ErrOverflow
	}
	return z.FromHalves(hi, lo), nil
}
