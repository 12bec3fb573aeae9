package census

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// countInFixture is the shape of the paper experiments' hitrate and
// efficiency stage: monthly snapshots of 11,000–20,000 hosts over a
// universe of /16–/24 prefixes, and TASS-style selections of the
// 1,300–2,900 densest month-0 prefixes.
func countInFixture() (snaps []*Snapshot, sels []rib.Partition) {
	rng := rand.New(rand.NewSource(1))
	var ps []netaddr.Prefix
	cur := uint32(0x01000000)
	for len(ps) < 12000 {
		bits := 16 + rng.Intn(9)
		size := uint32(1) << (32 - bits)
		cur = (cur + size - 1) &^ (size - 1)
		ps = append(ps, netaddr.MustPrefixFrom(netaddr.Addr(cur), bits))
		cur += size + uint32(rng.Intn(4))<<8
	}
	universe, err := rib.NewPartition(ps)
	if err != nil {
		panic(err)
	}
	// Hosts sit in a skewed 30 % of the prefixes; each month draws its
	// population from the same placement, so selections keep a hitrate.
	live := rng.Perm(len(ps))[:len(ps)*3/10]
	for m, hosts := range []int{11000, 14000, 17000, 20000} {
		mrng := rand.New(rand.NewSource(int64(m)))
		addrs := make([]netaddr.Addr, 0, hosts)
		for len(addrs) < hosts {
			p := ps[live[int(float64(len(live))*mrng.Float64()*mrng.Float64())]]
			off := uint32(mrng.Int63n(int64(p.NumAddresses())))
			addrs = append(addrs, p.Addr()+netaddr.Addr(off))
		}
		snaps = append(snaps, NewSnapshot("t", m, addrs))
	}
	counts, _ := universe.CountAddrs(snaps[0].Addrs)
	up := universe.Prefixes()
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return counts[order[i]]*int(up[order[j]].NumAddresses()>>8) >
			counts[order[j]]*int(up[order[i]].NumAddresses()>>8)
	})
	for _, k := range []int{1300, 1700, 2100, 2500, 2900} {
		sels = append(sels, universe.Subset(order[:k]))
	}
	return snaps, sels
}

// BenchmarkCountIn times one paper-shaped round of the hitrate stage:
// 240 CountIn calls, every selection against every snapshot twelve
// times. "eager" takes the IPv4 merge walk (each selection is dense for
// these snapshots); "lazy" counts the same pairs off file-backed
// snapshots through the block index.
func BenchmarkCountIn(b *testing.B) {
	snaps, sels := countInFixture()
	lazy := make([]*Snapshot, len(snaps))
	for i, s := range snaps {
		path := filepath.Join(b.TempDir(), "s.snap")
		if err := WriteSnapshotFile(path, s); err != nil {
			b.Fatal(err)
		}
		l, err := OpenSnapshotFile(path)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		lazy[i] = l
	}
	const rounds = 240
	for _, bc := range []struct {
		name  string
		snaps []*Snapshot
	}{{"eager", snaps}, {"lazy", lazy}} {
		b.Run(bc.name, func(b *testing.B) {
			want := 0
			for _, s := range snaps {
				for _, p := range sels {
					want += s.CountIn(p)
				}
			}
			want *= rounds / (len(snaps) * len(sels))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := 0
				for r := 0; r < rounds; r++ {
					got += bc.snaps[r%len(bc.snaps)].CountIn(sels[r/len(bc.snaps)%len(sels)])
				}
				if got != want {
					b.Fatalf("counted %d, want %d", got, want)
				}
			}
		})
	}
}
