// Package cluster implements the refinement the paper's §5 proposes as
// future work: applying the block-level utilization clustering of Cai &
// Heidemann ("Understanding Block-level Address Usage in the Visible
// Internet") to network prefixes.
//
// Given a seed scan, Refine recursively bisects prefixes whose host mass
// is strongly concentrated in one half, isolating dense cores from
// sparse remainders. The refined partition covers exactly the same
// address space but lets the density-ranked selection reach the same φ
// with less space — at the usual cost: finer prefixes age faster (the
// l- vs m-prefix trade-off of Figure 6, one step further).
package cluster

import (
	"fmt"
	"sort"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// Options bounds the refinement.
type Options struct {
	// MaxLen caps the refined prefix length (default 24, the paper's
	// "prefixes longer than /24 are negligible").
	MaxLen int
	// MinHosts stops splitting prefixes with fewer observed hosts
	// (default 16): tiny populations carry no reliable density signal.
	MinHosts int
	// Contrast is the density ratio between the denser and the sparser
	// half that justifies a split (default 4). A half with zero hosts
	// always satisfies it.
	Contrast float64
}

func (o *Options) fill() {
	if o.MaxLen == 0 {
		o.MaxLen = 24
	}
	if o.MinHosts == 0 {
		o.MinHosts = 16
	}
	if o.Contrast == 0 {
		o.Contrast = 4
	}
}

// Refine splits the partition's prefixes around the host concentrations
// observed in the seed snapshot and returns the refined partition. The
// result covers exactly the same address space.
func Refine(seed *census.Snapshot, part rib.Partition, opts Options) (rib.Partition, error) {
	opts.fill()
	if opts.MaxLen < 0 || opts.MaxLen > 32 {
		return rib.Partition{}, fmt.Errorf("cluster: bad MaxLen %d", opts.MaxLen)
	}
	addrs := seed.Addrs // sorted
	var out []netaddr.Prefix

	var split func(p netaddr.Prefix, lo, hi int)
	split = func(p netaddr.Prefix, lo, hi int) {
		count := hi - lo
		if p.Bits() >= opts.MaxLen || count < opts.MinHosts {
			out = append(out, p)
			return
		}
		left, right, ok := p.Split()
		if !ok {
			out = append(out, p)
			return
		}
		// Partition the address range at the half boundary.
		mid := lo + sort.Search(hi-lo, func(i int) bool {
			return addrs[lo+i] >= right.First()
		})
		lc, rc := mid-lo, hi-mid
		// Both halves populated and balanced: no concentration signal.
		if lc > 0 && rc > 0 {
			denser, sparser := float64(lc), float64(rc)
			if sparser > denser {
				denser, sparser = sparser, denser
			}
			if denser < opts.Contrast*sparser {
				out = append(out, p)
				return
			}
		}
		split(left, lo, mid)
		split(right, mid, hi)
	}

	// The prefixes are sorted and disjoint, so each one's addresses start
	// at or after the previous prefix's end.
	firsts, lasts := part.Bounds()
	hi := 0
	for i, p := range part.Prefixes() {
		first, last := firsts[i], lasts[i]
		lo := hi + sort.Search(len(addrs)-hi, func(j int) bool { return addrs[hi+j] >= first })
		hi = lo + sort.Search(len(addrs)-lo, func(j int) bool { return addrs[lo+j] > last })
		split(p, lo, hi)
	}
	netaddr.SortPrefixes(out)
	refined, err := rib.NewPartition(out)
	if err != nil {
		// Cannot happen: splitting disjoint prefixes keeps them disjoint.
		return rib.Partition{}, fmt.Errorf("cluster: internal: %w", err)
	}
	return refined, nil
}
