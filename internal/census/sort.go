package census

import "github.com/tass-scan/tass/internal/netaddr"

// SortAddrs sorts an address slice ascending with a byte-wise LSD radix
// sort: ~5× faster than comparison sorting on the multi-million-address
// sets full scans produce, and the dominant cost of snapshot
// construction. Falls back to insertion sort for small inputs.
func SortAddrs(addrs []netaddr.Addr) {
	if len(addrs) < 64 {
		insertionSort(addrs)
		return
	}
	SortAddrsScratch(addrs, make([]netaddr.Addr, len(addrs)))
}

// SortAddrsScratch is SortAddrs with a caller-owned scratch buffer of
// at least len(addrs), for callers that sort many sets of similar size
// (the monthly snapshot extraction loop) and want to pay the buffer
// allocation once. On return addrs is sorted; the scratch contents are
// unspecified.
//
// All four byte histograms are gathered in one pass, and permutation
// passes whose byte is constant across the input are skipped entirely —
// on a reduced-scale universe confined to a few /8s that removes a
// quarter to half of the data movement.
func SortAddrsScratch(addrs, scratch []netaddr.Addr) {
	if len(addrs) < 64 {
		insertionSort(addrs)
		return
	}
	if len(scratch) < len(addrs) {
		panic("census: SortAddrsScratch: scratch smaller than input")
	}
	var counts [4][256]int
	for _, a := range addrs {
		counts[0][a&0xFF]++
		counts[1][(a>>8)&0xFF]++
		counts[2][(a>>16)&0xFF]++
		counts[3][a>>24]++
	}
	src, dst := addrs, scratch[:len(addrs)]
	for pass := 0; pass < 4; pass++ {
		shift := uint(pass * 8)
		c := &counts[pass]
		// A pass whose byte is constant is the identity permutation.
		if c[(src[0]>>shift)&0xFF] == len(src) {
			continue
		}
		sum := 0
		for i := range c {
			c[i], sum = sum, sum+c[i]
		}
		for _, a := range src {
			b := (a >> shift) & 0xFF
			dst[c[b]] = a
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &addrs[0] {
		copy(addrs, src)
	}
}

func insertionSort(addrs []netaddr.Addr) {
	for i := 1; i < len(addrs); i++ {
		for j := i; j > 0 && addrs[j] < addrs[j-1]; j-- {
			addrs[j], addrs[j-1] = addrs[j-1], addrs[j]
		}
	}
}

// DiffResult is the churn decomposition between two snapshots of one
// protocol that the paper's §3.3 host-stability analysis needs: how many
// addresses persisted, disappeared and appeared between the scans
// (DeltaOf.Result).
type DiffResult struct {
	// Kept counts addresses responsive in both snapshots.
	Kept int
	// Lost counts addresses responsive only in the earlier snapshot.
	Lost int
	// New counts addresses responsive only in the later snapshot.
	New int
}

// Retention returns Kept / earlier-total: the per-address stability the
// hitlist strategy depends on.
func (d DiffResult) Retention() float64 {
	if d.Kept+d.Lost == 0 {
		return 0
	}
	return float64(d.Kept) / float64(d.Kept+d.Lost)
}
