package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr6 is a 128-bit IPv6 address stored as two 64-bit halves. It is
// the second Key implementation: every data structure in this
// repository — prefixes, block-indexed sets, census snapshots,
// partitions, the ranking core — instantiates over it, which is the
// TASS paper's explicit future-work direction: when brute-forcing the
// address space is impossible, prefix selection is the only viable scan
// scoping.
type Addr6 struct {
	Hi, Lo uint64
}

// String formats a per RFC 5952: lower-case hexadecimal groups,
// zero-run compression for the single leftmost longest run (of length
// at least two), and dotted-quad notation for the low 32 bits of
// IPv4-mapped addresses (::ffff:a.b.c.d).
func (a Addr6) String() string {
	if a.Hi == 0 && a.Lo>>32 == 0xffff {
		return "::ffff:" + Addr(uint32(a.Lo)).String()
	}
	var groups [8]uint16
	for i := 0; i < 4; i++ {
		groups[i] = uint16(a.Hi >> (48 - 16*uint(i)))
		groups[i+4] = uint16(a.Lo >> (48 - 16*uint(i)))
	}
	// Longest run of zero groups (must be >1 to compress, per RFC 5952).
	best, bestLen := -1, 1
	for i := 0; i < 8; {
		if groups[i] != 0 {
			i++
			continue
		}
		j := i
		for j < 8 && groups[j] == 0 {
			j++
		}
		if j-i > bestLen {
			best, bestLen = i, j-i
		}
		i = j
	}
	var sb strings.Builder
	for i := 0; i < 8; i++ {
		if i == best {
			sb.WriteString("::")
			i += bestLen - 1
			continue
		}
		if i > 0 && !(best >= 0 && i == best+bestLen) {
			sb.WriteByte(':')
		}
		sb.WriteString(strconv.FormatUint(uint64(groups[i]), 16))
	}
	s := sb.String()
	if s == "" {
		return "::"
	}
	return s
}

// ParseAddr6 parses an RFC 4291 textual IPv6 address: hexadecimal
// groups with optional "::" compression, optionally ending in an
// embedded dotted-quad IPv4 address ("::ffff:192.0.2.1"). Zone
// suffixes ("%eth0") and any other trailing garbage are rejected.
func ParseAddr6(s string) (Addr6, error) {
	if strings.IndexByte(s, '%') >= 0 {
		return Addr6{}, fmt.Errorf("%w: zone suffix in %q", ErrBadAddr, s)
	}
	var head, tail []uint16
	parts := strings.Split(s, "::")
	if len(parts) > 2 {
		return Addr6{}, fmt.Errorf("%w: multiple '::' in %q", ErrBadAddr, s)
	}
	// parse decodes one colon-separated segment. last marks the segment
	// holding the end of the address, where the final group may be an
	// embedded dotted-quad IPv4 address (two 16-bit groups).
	parse := func(seg string, last bool) ([]uint16, error) {
		if seg == "" {
			return nil, nil
		}
		var out []uint16
		gs := strings.Split(seg, ":")
		for i, g := range gs {
			if strings.IndexByte(g, '.') >= 0 {
				if !last || i != len(gs)-1 {
					return nil, fmt.Errorf("%w: embedded IPv4 not at end of %q", ErrBadAddr, s)
				}
				v4, err := ParseAddr(g)
				if err != nil {
					return nil, fmt.Errorf("%w: bad embedded IPv4 %q in %q", ErrBadAddr, g, s)
				}
				return append(out, uint16(v4>>16), uint16(v4)), nil
			}
			if g == "" || len(g) > 4 {
				return nil, fmt.Errorf("%w: bad group %q in %q", ErrBadAddr, g, s)
			}
			v, err := strconv.ParseUint(g, 16, 16)
			if err != nil {
				return nil, fmt.Errorf("%w: bad group %q in %q", ErrBadAddr, g, s)
			}
			out = append(out, uint16(v))
		}
		return out, nil
	}
	var err error
	if head, err = parse(parts[0], len(parts) == 1); err != nil {
		return Addr6{}, err
	}
	if len(parts) == 2 {
		if tail, err = parse(parts[1], true); err != nil {
			return Addr6{}, err
		}
		if len(head)+len(tail) > 7 {
			return Addr6{}, fmt.Errorf("%w: '::' with 8 groups in %q", ErrBadAddr, s)
		}
	} else if len(head) != 8 {
		return Addr6{}, fmt.Errorf("%w: %d groups in %q", ErrBadAddr, len(head), s)
	}
	var groups [8]uint16
	copy(groups[:], head)
	copy(groups[8-len(tail):], tail)
	var a Addr6
	for i := 0; i < 4; i++ {
		a.Hi |= uint64(groups[i]) << (48 - 16*uint(i))
		a.Lo |= uint64(groups[i+4]) << (48 - 16*uint(i))
	}
	return a, nil
}

// MustParseAddr6 is ParseAddr6 for tests and constants; it panics on error.
func MustParseAddr6(s string) Addr6 {
	a, err := ParseAddr6(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Prefix6 is a canonical IPv6 CIDR prefix: the IPv6 instantiation of
// the generic Pfx. The zero value is the full ::/0 prefix.
type Prefix6 = Pfx[Addr6]

// Prefix6From returns the canonical prefix of length bits containing a.
func Prefix6From(a Addr6, bits int) (Prefix6, error) {
	return PfxFrom(a, bits)
}

// ParsePrefix6 parses IPv6 CIDR notation such as "2001:db8::/32". Host
// bits must be zero.
func ParsePrefix6(s string) (Prefix6, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix6{}, fmt.Errorf("%w: missing '/' in %q", ErrBadPrefix, s)
	}
	a, err := ParseAddr6(s[:slash])
	if err != nil {
		return Prefix6{}, fmt.Errorf("%w: %v", ErrBadPrefix, err)
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 128 {
		return Prefix6{}, fmt.Errorf("%w: bad length in %q", ErrBadPrefix, s)
	}
	mh, ml := maskHalves(128, bits)
	if a.Hi&^mh != 0 || a.Lo&^ml != 0 {
		return Prefix6{}, fmt.Errorf("%w: host bits set in %q", ErrBadPrefix, s)
	}
	return Prefix6{addr: a, bits: uint8(bits)}, nil
}
