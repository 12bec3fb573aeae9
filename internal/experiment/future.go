package experiment

import (
	"fmt"
	"math"
	"sort"

	"github.com/tass-scan/tass/internal/cluster"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/stats"
	"github.com/tass-scan/tass/internal/strategy"
)

// Clustering evaluates the paper's §5 proposal of applying Cai &
// Heidemann's utilization clustering to prefixes: the l-prefix universe
// is refined around the host concentrations observed in the seed scan —
// no BGP more-specific information used — and compared on both axes the
// paper cares about: space at φ=0.95 (month 0) and hitrate at month 6.
// The interesting outcome is that scan-driven clustering rediscovers
// much of the efficiency the announced m-prefix structure provides,
// with the same aging trade-off.
func Clustering(w *World) (Result, error) {
	var tb stats.Table
	tb.AddRow("protocol", "universe", "pieces", "space@.95", "hitrate m6")
	last := w.Cfg.Months
	for _, proto := range w.Protocols() {
		series := w.Series[proto]
		seed := series.At(0)
		refined, err := cluster.Refine(seed, w.U.Less, cluster.Options{Contrast: 2.5, MinHosts: 12})
		if err != nil {
			return Result{}, err
		}
		for _, uni := range []struct {
			label string
			part  rib.Partition
		}{
			{"l", w.U.Less},
			{"m", w.U.More},
			{"clustered", refined},
		} {
			sel, err := w.Select(seed, uni.part, core.Options{Phi: 0.95})
			if err != nil {
				return Result{}, err
			}
			tb.AddRow(proto, uni.label,
				fmt.Sprintf("%d", uni.part.Len()),
				fmt.Sprintf("%.3f", sel.SpaceShare),
				fmt.Sprintf("%.3f", sel.Hitrate(series.At(last))))
		}
	}
	return Result{
		ID:    "clustering",
		Title: "§5 future work: Cai-Heidemann clustering of l-prefixes from scan data (φ=0.95)",
		Text:  tb.String(),
	}, nil
}

// Reseed quantifies the paper's open Δt parameter: how often must the
// full seed scan be repeated? The campaign simulator reruns TASS with
// reseed intervals from monthly to never and reports the cost/accuracy
// frontier.
func Reseed(w *World) (Result, error) {
	var tb stats.Table
	tb.AddRow("Δt (months)", "reseeds", "mean cost share", "mean hitrate", "min hitrate")
	series := w.Series["ftp"]
	for _, dt := range []int{1, 2, 3, 6, 0} {
		ev, err := strategy.EvaluateCampaign(strategy.Campaign{
			Universe:    w.U.More,
			Opts:        core.Options{Phi: 0.95},
			ReseedEvery: dt,
		}, series, w.U.Less.AddressCount())
		if err != nil {
			return Result{}, err
		}
		min, _, _ := stats.MinMax(ev.Hitrate)
		label := fmt.Sprintf("%d", dt)
		if dt == 0 {
			label = "never"
		}
		tb.AddRow(label,
			fmt.Sprintf("%d", ev.Reseeds),
			fmt.Sprintf("%.3f", ev.MeanCostShare),
			fmt.Sprintf("%.3f", ev.MeanHitrate),
			fmt.Sprintf("%.3f", min))
	}
	return Result{
		ID:    "reseed",
		Title: "§3.1 step 5: choosing the reseed interval Δt (FTP, m-prefixes, φ=0.95)",
		Text:  tb.String(),
	}, nil
}

// VulnEstimate addresses the paper's §5 security-incident question: can
// a cheap low-φ TASS scan estimate the size of a vulnerable population?
// A synthetic vulnerability marks a fraction of month-0 hosts; the
// estimator extrapolates the count observed inside the selection by the
// selection's seed host coverage. Two placements are tested: uniform
// (every host equally likely vulnerable) and density-biased (hosts in
// sparse prefixes more likely vulnerable — the adversarial case the
// paper worries about).
func VulnEstimate(w *World) (Result, error) {
	var tb stats.Table
	tb.AddRow("placement", "φ", "space", "true", "estimate", "error")
	seed := w.Series["http"].At(0)
	ranked := w.Rank(seed, w.U.More)

	// Deterministic vulnerability marking per address.
	marked := func(a uint64, bias float64, density float64) bool {
		h := a*0x9E3779B97F4A7C15 + 12345
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		p := 0.10 // base vulnerability rate
		if bias > 0 {
			// Sparse prefixes (low density) carry more vulnerable hosts:
			// old unmaintained boxes live in the long tail.
			p *= 1 + bias*math.Exp(-density*1000)
		}
		return float64(h%1000000)/1000000 < p
	}

	for _, placement := range []struct {
		label string
		bias  float64
	}{
		{"uniform", 0},
		{"sparse-biased", 3},
	} {
		// Count true vulnerable population and per-prefix vulnerable counts.
		trueVuln := 0
		vulnByPrefix := make(map[int]int, len(ranked))
		for ri := range ranked {
			st := &ranked[ri]
			// Iterate this prefix's hosts via the snapshot slice.
			lo, hi := addrRange(seed.Addrs, st.Prefix)
			for _, a := range seed.Addrs[lo:hi] {
				if marked(uint64(a), placement.bias, st.Density) {
					trueVuln++
					vulnByPrefix[ri]++
				}
			}
		}
		for _, phi := range []float64{0.5, 0.95} {
			sel, err := w.Select(seed, w.U.More, core.Options{Phi: phi})
			if err != nil {
				return Result{}, err
			}
			observed := 0
			for ri := 0; ri < sel.K; ri++ {
				observed += vulnByPrefix[ri]
			}
			estimate := float64(observed) / sel.HostCoverage
			errPct := 100 * (estimate - float64(trueVuln)) / float64(trueVuln)
			tb.AddRow(placement.label,
				fmt.Sprintf("%.2f", phi),
				fmt.Sprintf("%.3f", sel.SpaceShare),
				fmt.Sprintf("%d", trueVuln),
				fmt.Sprintf("%.0f", estimate),
				fmt.Sprintf("%+.1f%%", errPct))
		}
	}
	return Result{
		ID:    "vulnestimate",
		Title: "§5 future work: estimating vulnerable populations from partial scans (HTTP, m-prefixes)",
		Text:  tb.String(),
	}, nil
}

// addrRange returns the index range [lo, hi) of the sorted addresses
// that lie inside p.
func addrRange(addrs []netaddr.Addr, p netaddr.Prefix) (lo, hi int) {
	lo = sort.Search(len(addrs), func(i int) bool { return addrs[i] >= p.First() })
	hi = lo + sort.Search(len(addrs)-lo, func(i int) bool { return addrs[lo+i] > p.Last() })
	return lo, hi
}

// Missed answers the paper's §1/§5 question "how are the missed hosts
// distributed in comparison to the other hosts?": at month 6 with a
// φ=0.95 month-0 selection, the missed hosts are broken down by the
// kind of l-prefix they live in and by prefix length.
func Missed(w *World) (Result, error) {
	var out string
	series := w.Series["ftp"]
	seed := series.At(0)
	sel, err := w.Select(seed, w.U.More, core.Options{Phi: 0.95})
	if err != nil {
		return Result{}, err
	}
	last := series.At(w.Cfg.Months)
	part := sel.Partition()

	type bucket struct{ found, missed int }
	byKind := make(map[string]*bucket)
	byLen := make(map[int]*bucket)
	for _, a := range last.Addrs {
		_, in := part.Find(a)
		li, ok := w.U.Less.Find(a)
		kind := "unannounced"
		plen := -1
		if ok {
			kind = w.U.Kinds[li].String()
			plen = w.U.Less.Prefix(li).Bits()
		}
		kb := byKind[kind]
		if kb == nil {
			kb = &bucket{}
			byKind[kind] = kb
		}
		lb := byLen[plen]
		if lb == nil {
			lb = &bucket{}
			byLen[plen] = lb
		}
		if in {
			kb.found++
			lb.found++
		} else {
			kb.missed++
			lb.missed++
		}
	}

	var tb stats.Table
	tb.AddRow("l-prefix kind", "found", "missed", "missed share")
	for _, kind := range []string{"residential", "hosting", "enterprise", "infrastructure", "unannounced"} {
		b := byKind[kind]
		if b == nil {
			continue
		}
		total := b.found + b.missed
		tb.AddRow(kind, fmt.Sprintf("%d", b.found), fmt.Sprintf("%d", b.missed),
			fmt.Sprintf("%.3f", float64(b.missed)/float64(total)))
	}
	out += tb.String() + "\n"

	var tl stats.Table
	tl.AddRow("l-prefix len", "found", "missed", "missed share")
	for l := 8; l <= 24; l++ {
		b := byLen[l]
		if b == nil {
			continue
		}
		total := b.found + b.missed
		tl.AddRow(fmt.Sprintf("/%d", l), fmt.Sprintf("%d", b.found), fmt.Sprintf("%d", b.missed),
			fmt.Sprintf("%.3f", float64(b.missed)/float64(total)))
	}
	out += tl.String()
	return Result{
		ID:    "missed",
		Title: "§1/§5 future work: where the missed hosts live (FTP, m-prefixes, φ=0.95, month 6)",
		Text:  out,
	}, nil
}
