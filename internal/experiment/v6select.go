package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/stats"
	"github.com/tass-scan/tass/internal/trie"
)

// V6Select exercises the paper's closing argument end to end: TASS as
// the blueprint for IPv6, where brute-forcing the space is impossible
// and prefix selection is the only viable scoping. A synthetic
// announced table (allocations of mixed length plus covered
// more-specifics) is collapsed to its maximal prefixes, a
// hitlist-style seed set with skewed per-prefix density is drawn
// deterministically from the world seed, and the generic selection
// engine is run over the φ grid. The observable is the selection
// footprint in SpaceBits — for IPv6 the address count itself is
// astronomical, so the probe cost only makes sense as an exponent.
func V6Select(w *World) (Result, error) {
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x763673656c))

	// Announced table: 64 allocations of /32 to /44; every fourth slot
	// also announces two more-specifics one nibble longer, which the
	// l-prefix collapse must absorb into their covering allocation.
	var announced []netaddr.Prefix6
	for i := 0; i < 64; i++ {
		base := netaddr.Addr6{Hi: uint64(0x2001_0000+i*7) << 32}
		bits := 32 + 4*rng.Intn(4)
		p, err := netaddr.Prefix6From(base, bits)
		if err != nil {
			return Result{}, err
		}
		announced = append(announced, p)
		if i%4 == 0 {
			for j := 1; j <= 2; j++ {
				ms, err := netaddr.Prefix6From(netaddr.Addr6{Hi: base.Hi | uint64(j)<<(64-bits-8)}, bits+8)
				if err != nil {
					return Result{}, err
				}
				announced = append(announced, ms)
			}
		}
	}
	u, err := rib.NewPartition(trie.LessSpecificOnly(announced))
	if err != nil {
		return Result{}, err
	}

	// Hitlist seeds: Zipf-ish host counts across the allocations, with
	// addresses concentrated in the top of each prefix and low
	// interface IDs — the structure passive sources and hitlists
	// actually show. Density now mixes host count and prefix length,
	// so the ranking is not simply the host-count order.
	order := rng.Perm(u.Len())
	var seeds []netaddr.Addr6
	for rank, idx := range order {
		hosts := 512 >> uint(rank/8) // 512, 256, ..., 4 per 8-prefix tier
		if hosts == 0 {
			hosts = 1
		}
		base := u.Prefix(idx).Addr()
		for h := 0; h < hosts; h++ {
			seeds = append(seeds, netaddr.Addr6{
				Hi: base.Hi | uint64(rng.Intn(1<<12)),
				Lo: uint64(1 + rng.Intn(1<<10)),
			})
		}
	}
	// The snapshot is the observations as a set: repeats count once.
	seed := census.NewSnapshotOf("seed6", 0, seeds)

	// The universe footprint as an exponent, accumulated the same way
	// the selection's SpaceBits is.
	uSpace := 0.0
	for i := 0; i < u.Len(); i++ {
		uSpace += math.Ldexp(1, 128-u.Prefix(i).Bits())
	}
	universeBits := math.Log2(uSpace)

	// One ranking serves the whole φ grid.
	grid := make([]core.Options, len(Phis))
	for i, phi := range Phis {
		grid[i] = core.Options{Phi: phi}
	}
	sels, err := core.SelectManyCached(seed, u, grid, 1, nil)
	if err != nil {
		return Result{}, err
	}
	var tb stats.Table
	tb.AddRow("φ", "K", "coverage", "space bits", "universe bits")
	for i, sel := range sels {
		tb.AddRow(
			fmt.Sprintf("%.2f", Phis[i]),
			fmt.Sprintf("%d", sel.K),
			fmt.Sprintf("%.3f", sel.HostCoverage),
			fmt.Sprintf("%.2f", sel.SpaceBits),
			fmt.Sprintf("%.2f", universeBits),
		)
	}
	return Result{
		ID:    "v6select",
		Title: "IPv6 TASS selection over an announced-prefix universe (hitlist seeds)",
		Text:  tb.String(),
	}, nil
}
