package cluster

import (
	"math/rand"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func TestRefineIsolatesDenseCore(t *testing.T) {
	// A /16 whose hosts all live in the first /24: refinement must carve
	// out small dense pieces around that /24.
	part, err := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	var addrs []netaddr.Addr
	for i := 0; i < 200; i++ {
		addrs = append(addrs, pfx("10.0.0.0/24").First()+netaddr.Addr(i))
	}
	seed := census.NewSnapshot("ftp", 0, addrs)
	refined, err := Refine(seed, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Len() <= 1 {
		t.Fatalf("refinement did not split: %v", refined.Prefixes())
	}
	if refined.AddressCount() != part.AddressCount() {
		t.Fatalf("refined space %d != original %d", refined.AddressCount(), part.AddressCount())
	}
	// The dense /24 must survive as its own piece (or finer).
	idx, ok := refined.Find(pfx("10.0.0.0/24").First())
	if !ok {
		t.Fatal("dense core not covered")
	}
	if got := refined.Prefix(idx); got.Bits() < 24 {
		t.Errorf("dense core still buried in %v", got)
	}
	// Selection on the refined universe needs less space for the same φ.
	selOrig, err := core.SelectCached(seed, part, core.Options{Phi: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	selRef, err := core.SelectCached(seed, refined, core.Options{Phi: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if selRef.Space >= selOrig.Space {
		t.Errorf("refined selection space %d not below original %d", selRef.Space, selOrig.Space)
	}
}

func TestRefineLeavesUniformPrefixesAlone(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/20")})
	rng := rand.New(rand.NewSource(1))
	var addrs []netaddr.Addr
	for i := 0; i < 2000; i++ {
		addrs = append(addrs, pfx("10.0.0.0/20").First()+netaddr.Addr(rng.Intn(1<<12)))
	}
	seed := census.NewSnapshot("ftp", 0, addrs)
	refined, err := Refine(seed, part, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform fill: contrast never reaches 4x, so no splitting.
	if refined.Len() != 1 {
		t.Errorf("uniform prefix was split into %d pieces", refined.Len())
	}
}

func TestRefineRespectsBounds(t *testing.T) {
	part, _ := rib.NewPartition([]netaddr.Prefix{pfx("10.0.0.0/22")})
	// All hosts on one address: maximal concentration.
	var addrs []netaddr.Addr
	for i := 0; i < 100; i++ {
		addrs = append(addrs, pfx("10.0.0.0/22").First())
	}
	seed := census.NewSnapshot("ftp", 0, addrs)
	refined, err := Refine(seed, part, Options{MaxLen: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range refined.Prefixes() {
		if p.Bits() > 24 {
			t.Errorf("piece %v beyond MaxLen", p)
		}
	}
	// MinHosts blocks splitting of sparse prefixes.
	sparse := census.NewSnapshot("ftp", 0, addrs[:1])
	refined, err = Refine(sparse, part, Options{MinHosts: 16})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Len() != 1 {
		t.Errorf("sparse prefix split despite MinHosts: %d pieces", refined.Len())
	}
	if _, err := Refine(seed, part, Options{MaxLen: 40}); err == nil {
		t.Error("MaxLen 40 accepted")
	}
}

func TestRefinePreservesSpaceProperty(t *testing.T) {
	// Random universes: refined partition covers exactly the same space,
	// is disjoint (NewPartition validates), and never loses a host.
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 20; iter++ {
		var ps []netaddr.Prefix
		base := netaddr.Addr(uint32(iter) << 24)
		for i := 0; i < 8; i++ {
			ps = append(ps, netaddr.MustPrefixFrom(base+netaddr.Addr(i<<16), 16))
		}
		part, err := rib.NewPartition(ps)
		if err != nil {
			t.Fatal(err)
		}
		var addrs []netaddr.Addr
		for i := 0; i < 3000; i++ {
			p := ps[rng.Intn(len(ps))]
			// Concentrate half the population in the first /22 of each prefix.
			off := rng.Intn(1 << 16)
			if rng.Intn(2) == 0 {
				off = rng.Intn(1 << 10)
			}
			addrs = append(addrs, p.First()+netaddr.Addr(off))
		}
		seed := census.NewSnapshot("x", 0, addrs)
		refined, err := Refine(seed, part, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if refined.AddressCount() != part.AddressCount() {
			t.Fatalf("iter %d: space changed", iter)
		}
		wasIn := seed.CountIn(part)
		nowIn := seed.CountIn(refined)
		if wasIn != nowIn {
			t.Fatalf("iter %d: hosts in partition changed %d -> %d", iter, wasIn, nowIn)
		}
	}
}

func BenchmarkRefine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var ps []netaddr.Prefix
	for i := 0; i < 256; i++ {
		ps = append(ps, netaddr.MustPrefixFrom(netaddr.Addr(uint32(i)<<16), 16))
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		b.Fatal(err)
	}
	var addrs []netaddr.Addr
	for i := 0; i < 100000; i++ {
		p := ps[rng.Intn(len(ps))]
		addrs = append(addrs, p.First()+netaddr.Addr(rng.Intn(1<<12)))
	}
	seed := census.NewSnapshot("bench", 0, addrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Refine(seed, part, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
