package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// Differential tests: every rank/select entry point and a Ranker after
// any sequence of Applies must agree bit for bit with the reference
// one-shot ranking in reference_test.go, for IPv4 on the packed key,
// IPv4 forced through the wide key, and IPv6.

// familyBase returns the (hi, lo) halves fixtures lay their universes
// out from: 10.0.0.0 for IPv4, 2001:db8:: for IPv6.
func familyBase[A netaddr.Key[A]]() (hi, lo uint64) {
	var z A
	if z.Width() == 32 {
		return 0, 10 << 24
	}
	return 0x2001_0db8 << 32, 0
}

// tieUniverse draws up to n adjacent prefixes of mixed length (W-12 ..
// W) and a seed over them, with host counts rigged to produce every
// tie shape of the ranking: equal density at equal length (a
// prefix-order tie) and equal density at different lengths (a
// host-count tie). About one prefix in five stays empty.
func tieUniverse[A netaddr.Key[A]](rng *rand.Rand, n int) (rib.PartOf[A], []A) {
	var z A
	w := z.Width()
	hi, base := familyBase[A]()
	var ps []netaddr.Pfx[A]
	var addrs []A
	for i := 0; i < n; i++ {
		bits := w - 12 + rng.Intn(13)
		size := uint64(1) << uint(w-bits)
		// Align up to the prefix size, then advance past it.
		first := (base + size - 1) / size * size
		base = first + size
		p := netaddr.MustPfxFrom(z.FromHalves(hi, first), bits)
		ps = append(ps, p)
		// Host counts biased toward small powers of two so that c<<len
		// collides across prefixes frequently.
		c := 1 << rng.Intn(4)
		if c > int(size) {
			c = int(size)
		}
		if rng.Intn(5) == 0 {
			c = 0
		}
		for k := 0; k < c; k++ {
			addrs = append(addrs, z.FromHalves(hi, first+uint64(k)))
		}
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		panic(err)
	}
	return part, addrs
}

// churnAddrs returns the next month of addrs over part: each address
// dies with probability pDie, and as many births land at random
// offsets inside random prefixes, plus a few just past the universe.
func churnAddrs[A netaddr.Key[A]](rng *rand.Rand, part rib.PartOf[A], addrs []A, pDie float64) []A {
	var z A
	var next []A
	for _, a := range addrs {
		if rng.Float64() >= pDie {
			next = append(next, a)
		}
	}
	for births := 1 + int(pDie*float64(len(addrs))); births > 0; births-- {
		p := part.Prefix(rng.Intn(part.Len()))
		off := uint64(rng.Int63n(int64(min(p.NumAddresses(), 1<<12))))
		hi, lo := p.First().Halves()
		next = append(next, z.FromHalves(hi, lo+off))
	}
	hi, lo := part.LastAt(part.Len() - 1).Halves()
	for k := uint64(1); k <= 3; k++ {
		next = append(next, z.FromHalves(hi, lo+k*uint64(1+rng.Intn(100))))
	}
	return next
}

// diffGrid is the option grid every differential selection covers.
var diffGrid = []Options{
	{Phi: 1},
	{Phi: 0.95},
	{Phi: 0.5},
	{Phi: 0.25, MaxPrefixes: 3},
	{Phi: 0.9, MinDensity: 1e-30},
}

// mustEqualSelections asserts byte-identity of two selections,
// including the full ranking and the derived partition.
func mustEqualSelections[A netaddr.Key[A]](t testing.TB, label string, got, want *SelectionOf[A]) {
	t.Helper()
	if got.K != want.K || got.SeedHosts != want.SeedHosts ||
		got.HostCoverage != want.HostCoverage || got.Space != want.Space ||
		got.SpaceBits != want.SpaceBits || got.SpaceShare != want.SpaceShare {
		t.Fatalf("%s: selection header diverged:\ngot  K=%d N=%d cov=%v space=%d bits=%v share=%v\nwant K=%d N=%d cov=%v space=%d bits=%v share=%v",
			label, got.K, got.SeedHosts, got.HostCoverage, got.Space, got.SpaceBits, got.SpaceShare,
			want.K, want.SeedHosts, want.HostCoverage, want.Space, want.SpaceBits, want.SpaceShare)
	}
	mustEqualRanked(t, label, got.Ranked, want.Ranked)
	gp, wp := got.Partition(), want.Partition()
	if !slices.Equal(gp.Prefixes(), wp.Prefixes()) || gp.AddressCount() != wp.AddressCount() {
		t.Fatalf("%s: selected partitions diverge", label)
	}
	for i := 0; i < gp.Len(); i++ {
		if gp.FirstAt(i) != wp.FirstAt(i) || gp.LastAt(i) != wp.LastAt(i) {
			t.Fatalf("%s: selected partition bounds diverge at %d", label, i)
		}
	}
}

func mustEqualRanked[A netaddr.Key[A]](t testing.TB, label string, got, want []StatOf[A]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: ranking length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d diverged: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// mustMatchReference checks a Ranker's current state, and the one-shot
// entry points on snap, against the reference on snap.
func mustMatchReference[A netaddr.Key[A]](t testing.TB, label string, r *RankerOf[A], snap *census.SnapshotOf[A], part rib.PartOf[A]) {
	t.Helper()
	want := refRankCached(snap, part, 1, nil)
	mustEqualRanked(t, label+"/Ranker.Ranked", r.Ranked(), want)
	if r.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", label, r.Len(), len(want))
	}
	mustEqualRanked(t, label+"/RankCached", RankCached(snap, part, 2, nil), want)
	many, manyErr := SelectManyCached(snap, part, diffGrid, 4, nil)
	for i, opts := range diffGrid {
		ref, refErr := refSelectCached(snap, part, opts, 1, nil)
		one, oneErr := SelectCached(snap, part, opts, 2, nil)
		inc, incErr := r.Select(opts)
		if (oneErr != nil) != (refErr != nil) || (manyErr != nil) != (refErr != nil) || (incErr != nil) != (refErr != nil) {
			t.Fatalf("%s %+v: errors diverge: SelectCached %v, SelectManyCached %v, Ranker.Select %v, reference %v",
				label, opts, oneErr, manyErr, incErr, refErr)
		}
		if refErr != nil {
			continue
		}
		mustEqualSelections(t, label+"/Ranker.Select", inc, ref)
		mustEqualSelections(t, label+"/SelectCached", one, ref)
		mustEqualSelections(t, label+"/SelectManyCached", many[i], ref)
	}
}

// rankerVsReference seeds a Ranker (wide forces the wide key codec)
// and checks it against the reference after every month of churn.
func rankerVsReference[A netaddr.Key[A]](t *testing.T, label string, rng *rand.Rand, wide bool) {
	var z A
	for trial := 0; trial < 20; trial++ {
		part, addrs := tieUniverse[A](rng, 40)
		snap := census.NewSnapshotOf("x", 0, addrs)
		var r *RankerOf[A]
		if wide {
			counts, _ := (*census.CountCacheOf[A])(nil).Counts(snap, part, 1)
			r = newRankerOf(part, slices.Clone(counts), &wideKeys[A]{w: z.Width()})
		} else {
			var err error
			if r, err = NewRanker(snap, part, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		mustMatchReference(t, label, r, snap, part)
		for month := 1; month <= 4; month++ {
			addrs = churnAddrs(rng, part, snap.Addrs, 0.05+0.3*rng.Float64())
			next := census.NewSnapshotOf("x", month, addrs)
			if err := r.Apply(snap.Diff(next)); err != nil {
				t.Fatalf("%s trial %d month %d: %v", label, trial, month, err)
			}
			snap = next
			mustMatchReference(t, label, r, snap, part)
		}
	}
}

// TestRankingMatchesReference pins RankCached, SelectCached,
// SelectManyCached and a Ranker after Apply sequences to the reference
// one-shot ranking on rigged-tie universes.
func TestRankingMatchesReference(t *testing.T) {
	t.Run("ipv4-packed", func(t *testing.T) {
		rankerVsReference[netaddr.Addr](t, "ipv4-packed", rand.New(rand.NewSource(21)), false)
	})
	t.Run("ipv4-wide", func(t *testing.T) {
		rankerVsReference[netaddr.Addr](t, "ipv4-wide", rand.New(rand.NewSource(22)), true)
	})
	t.Run("ipv6", func(t *testing.T) {
		rankerVsReference[netaddr.Addr6](t, "ipv6", rand.New(rand.NewSource(23)), false)
	})
}

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzRanker decodes data into a universe of up to 16 mixed-length
// prefixes, a seed and one to three months of churn, and checks a
// Ranker (wide forces the wide key codec) against the reference after
// every Apply.
func fuzzRanker[A netaddr.Key[A]](t *testing.T, data []byte, wide bool) {
	in := fuzzBytes(data)
	var z A
	w := z.Width()
	hi, base := familyBase[A]()
	n := 1 + in.next()%16
	ps := make([]netaddr.Pfx[A], n)
	for i := range ps {
		hostBits := in.next() % 10
		size := uint64(1) << uint(hostBits)
		first := (base+size-1)/size*size + uint64(in.next()%3)*size // gaps leave room for outside hits
		base = first + size
		ps[i] = netaddr.MustPfxFrom(z.FromHalves(hi, first), w-hostBits)
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	// at maps one input byte pair to an address: usually inside a
	// prefix, sometimes in a gap or past the universe.
	at := func() A {
		p := ps[in.next()%n]
		_, lo := p.First().Halves()
		return z.FromHalves(hi, lo+uint64(in.next())%(2*p.NumAddresses()))
	}
	var addrs []A
	for k := in.next() % 64; k > 0; k-- {
		addrs = append(addrs, at())
	}
	snap := census.NewSnapshotOf("x", 0, addrs)
	counts, _ := (*census.CountCacheOf[A])(nil).Counts(snap, part, 1)
	keys := keysFor[A](part.Len())
	if wide {
		keys = &wideKeys[A]{w: w}
	}
	r := newRankerOf(part, slices.Clone(counts), keys)
	mustMatchReference(t, "seed", r, snap, part)
	for month := 1; month <= 1+in.next()%3; month++ {
		var next []A
		for _, a := range snap.Addrs {
			if in.next()%4 != 0 {
				next = append(next, a)
			}
		}
		for k := in.next() % 32; k > 0; k-- {
			next = append(next, at())
		}
		later := census.NewSnapshotOf("x", month, next)
		if err := r.Apply(snap.Diff(later)); err != nil {
			t.Fatalf("month %d: %v", month, err)
		}
		snap = later
		mustMatchReference(t, "apply", r, snap, part)
	}
}

// FuzzRankerMatchesReference drives Rankers of both families, and an
// IPv4 Ranker on the wide key, through fuzzed universes and churn,
// asserting equality with the reference after every Apply.
func FuzzRankerMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{15, 3, 0, 3, 1, 5, 2, 9, 0, 1, 1, 0, 40, 7, 7, 3, 3, 2, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 9, 0, 9, 0, 9, 0, 9, 0, 63, 0, 1, 1, 2, 2, 3, 3, 4, 0, 5, 1, 6, 2, 7, 3, 8, 2, 1, 1, 1, 1, 20, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRanker[netaddr.Addr](t, data, false)
		fuzzRanker[netaddr.Addr](t, data, true)
		fuzzRanker[netaddr.Addr6](t, data, false)
	})
}
