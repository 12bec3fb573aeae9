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
