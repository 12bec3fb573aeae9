package scan

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/trie"
)

// randomExclusions draws an exclusion list crowded into a few anchors so
// prefixes nest, overlap, abut and repeat; some lists also carry the
// whole space or the top address.
func randomExclusions(rng *rand.Rand) []netaddr.Prefix {
	anchors := []netaddr.Addr{0, 0x0a000000, 0x7fffff00, 0xc0a80000, math.MaxUint32 - 0xffff}
	n := rng.Intn(40)
	ps := make([]netaddr.Prefix, 0, n+2)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r == 0 && len(ps) > 0: // duplicate
			ps = append(ps, ps[rng.Intn(len(ps))])
		case r == 1 && len(ps) > 0: // adjacent: the same-size block right after
			q := ps[rng.Intn(len(ps))]
			if q.Last() != math.MaxUint32 {
				ps = append(ps, netaddr.MustPrefixFrom(q.Last()+1, q.Bits()))
			}
		default:
			a := anchors[rng.Intn(len(anchors))] + netaddr.Addr(rng.Intn(1<<16))
			if rng.Intn(8) == 0 {
				a = netaddr.Addr(rng.Uint32())
			}
			bits := 16 + rng.Intn(17)
			if rng.Intn(10) == 0 {
				bits = 1 + rng.Intn(16)
			}
			ps = append(ps, netaddr.MustPrefixFrom(a, bits))
		}
	}
	if rng.Intn(8) == 0 {
		ps = append(ps, netaddr.MustParsePrefix("0.0.0.0/0"))
	}
	if rng.Intn(4) == 0 {
		ps = append(ps, netaddr.MustParsePrefix("255.255.255.255/32"))
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// TestExclusionRangesMatchTrie pins the merged-range exclusion check to a
// longest-prefix-match trie over the same prefixes: both must agree on
// every prefix's edges, the addresses just outside them, the ends of the
// address space, and random addresses.
func TestExclusionRangesMatchTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		ps := randomExclusions(rng)
		l := newExclusionList(ps)
		tr := trie.New[struct{}]()
		for _, p := range ps {
			tr.Insert(p, struct{}{})
		}
		for i := 1; i < len(l.ranges); i++ {
			prev, cur := l.ranges[i-1], l.ranges[i]
			if prev.Last >= cur.First || prev.Last+1 == cur.First {
				t.Fatalf("iter %d: ranges %v and %v overlap or abut after merging", iter, prev, cur)
			}
		}
		check := func(a netaddr.Addr) {
			t.Helper()
			_, _, want := tr.Lookup(a)
			if got := l.contains(a); got != want {
				t.Fatalf("iter %d: %v excluded = %v, trie says %v (list %v)", iter, a, got, want, ps)
			}
		}
		check(0)
		check(math.MaxUint32)
		for _, p := range ps {
			check(p.First())
			check(p.Last())
			check(p.First() - 1) // wraps at 0.0.0.0: still a valid probe
			check(p.Last() + 1)
			check(p.First() + netaddr.Addr(rng.Uint64()%p.NumAddresses()))
		}
		for i := 0; i < 200; i++ {
			check(netaddr.Addr(rng.Uint32()))
		}
	}
}

// TestExclusionCountIsPrefixesGiven: the count reports the prefixes as
// given, duplicates and covered ones included, not the merged ranges.
func TestExclusionCountIsPrefixesGiven(t *testing.T) {
	part, err := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/24")})
	if err != nil {
		t.Fatal(err)
	}
	prober, _ := NewSimProber(nil, 0, 1)
	s, err := New(Config{Targets: part, Prober: prober})
	if err != nil {
		t.Fatal(err)
	}
	ps := []netaddr.Prefix{
		pfx("10.0.0.0/25"), pfx("10.0.0.0/25"), pfx("10.0.0.0/26"), pfx("10.0.0.128/25"),
	}
	s.SetExclusions(ps)
	if got := s.ExclusionCount(); got != len(ps) {
		t.Fatalf("ExclusionCount = %d, want %d", got, len(ps))
	}
	if got := len(s.exclude.Load().ranges); got != 1 {
		t.Fatalf("%d merged ranges, want 1 (the whole /24)", got)
	}
	s.SetExclusions(nil)
	if got := s.ExclusionCount(); got != 0 {
		t.Fatalf("ExclusionCount after clearing = %d", got)
	}
}

// randomTargets draws a small target partition around the same anchors
// as randomExclusions, so the lists nest in, straddle and miss its
// prefixes; some partitions reach 0.0.0.0 or 255.255.255.255.
func randomTargets(rng *rand.Rand) rib.Partition {
	anchors := []netaddr.Addr{0, 0x0a000000, 0x7fffff00, 0xc0a80000, math.MaxUint32 - 0xffff}
	var ps []netaddr.Prefix
	switch rng.Intn(4) {
	case 0:
		ps = append(ps, netaddr.MustParsePrefix("255.255.255.255/32"))
	case 1:
		ps = append(ps, netaddr.MustParsePrefix("255.255.255.0/24"), netaddr.MustParsePrefix("0.0.0.0/30"))
	}
	for n := 1 + rng.Intn(24); len(ps) < n; {
		a := anchors[rng.Intn(len(anchors))] + netaddr.Addr(rng.Intn(1<<16))
		q := netaddr.MustPrefixFrom(a, 22+rng.Intn(11))
		overlaps := false
		for _, p := range ps {
			overlaps = overlaps || p.Overlaps(q)
		}
		if !overlaps {
			ps = append(ps, q)
		}
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		panic(err)
	}
	return part
}

// TestExclusionPrefilterMatchesContains: the per-target-prefix bit
// SetExclusions computes is exact. For every address of every target
// prefix, hits && contains equals contains, and a prefix's bit is set
// only when one of its addresses is excluded, so the prefilter skips
// every search it can.
func TestExclusionPrefilterMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prober, _ := NewSimProber(nil, 0, 1)
	bits := map[bool]int{}
	for iter := 0; iter < 300; iter++ {
		part := randomTargets(rng)
		s := mustScanner(t, Config{Targets: part, Prober: prober})
		ps := randomExclusions(rng)
		s.SetExclusions(ps)
		l := s.exclude.Load()
		if l == nil {
			continue // an empty list installs none
		}
		if len(l.hits) != part.Len() {
			t.Fatalf("iter %d: %d prefilter bits for %d targets", iter, len(l.hits), part.Len())
		}
		for pi := 0; pi < part.Len(); pi++ {
			p := part.Prefix(pi)
			excluded := false
			for a := uint64(p.First()); a <= uint64(p.Last()); a++ {
				in := l.contains(netaddr.Addr(a))
				if got := l.hits[pi] && in; got != in {
					t.Fatalf("iter %d: %v in target %v: prefilter drops an excluded address (list %v)", iter, netaddr.Addr(a), p, ps)
				}
				excluded = excluded || in
			}
			if l.hits[pi] != excluded {
				t.Fatalf("iter %d: target %v bit %v, but an address excluded is %v (list %v)", iter, p, l.hits[pi], excluded, ps)
			}
			bits[l.hits[pi]]++
		}
	}
	if bits[false] < 100 || bits[true] < 100 {
		t.Fatalf("prefilter bits set %d, clear %d: the draws no longer cover both", bits[true], bits[false])
	}
}
