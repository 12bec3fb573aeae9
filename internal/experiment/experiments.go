package experiment

import (
	"fmt"
	"strings"

	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/stats"
	"github.com/tass-scan/tass/internal/strategy"
	"github.com/tass-scan/tass/internal/trie"
)

// Phis are the host-coverage targets of the paper's Table 1.
var Phis = []float64{1, 0.99, 0.95, 0.7, 0.5}

// Table1 regenerates the paper's Table 1: address-space coverage of the
// TASS selection at each φ, per protocol, for the l-prefix and m-prefix
// universes.
func Table1(w *World) (Result, error) {
	var tb stats.Table
	tb.AddRow(append([]string{"prefixes", "φ"}, w.Protocols()...)...)
	for _, uni := range []struct {
		label string
		part  rib.Partition
	}{
		{"less", w.U.Less},
		{"more", w.U.More},
	} {
		// One ranking per (universe, protocol), the φ grid selected
		// concurrently from it.
		byProto := make(map[string][]*core.Selection, len(w.Protocols()))
		for _, proto := range w.Protocols() {
			seed := w.Series[proto].At(0)
			sels, err := w.SelectPhis(seed, uni.part, Phis)
			if err != nil {
				return Result{}, fmt.Errorf("table1 %s/%s: %w", uni.label, proto, err)
			}
			byProto[proto] = sels
		}
		for pi, phi := range Phis {
			row := []string{uni.label, fmt.Sprintf("%.2f", phi)}
			for _, proto := range w.Protocols() {
				row = append(row, fmt.Sprintf("%.3f", byProto[proto][pi].SpaceShare))
			}
			tb.AddRow(row...)
		}
	}
	return Result{
		ID:    "table1",
		Title: "IPv4 address space coverage per φ (less/more specific prefixes)",
		Text:  tb.String(),
	}, nil
}

// Figure1 regenerates the scanning-strategy scoping funnel: /0 space,
// IANA-allocated space, BGP-announced space, and hitlist sizes.
func Figure1(w *World) (Result, error) {
	var tb stats.Table
	tb.AddRow("scope", "addresses", "share of /0")
	space := float64(uint64(1) << 32)
	row := func(label string, n uint64) {
		tb.AddRow(label, fmt.Sprintf("%d", n), fmt.Sprintf("%.3f", float64(n)/space))
	}
	row("IANA /0", 1<<32)
	row("allocated", w.U.Allocated)
	row("announced (BGP)", w.U.Less.AddressCount())
	for _, proto := range w.Protocols() {
		row("hitlist "+proto, uint64(w.Series[proto].At(0).Hosts()))
	}
	return Result{
		ID:    "figure1",
		Title: "scanning strategies and their scoping of the IPv4 space",
		Text:  tb.String(),
	}, nil
}

// Figure2 demonstrates the deaggregation of a less-specific prefix around
// an announced more-specific (the paper's /8 + /12 illustration).
func Figure2() (Result, error) {
	l := netaddr.MustParsePrefix("100.0.0.0/8")
	m := netaddr.MustParsePrefix("100.16.0.0/12")
	pieces := trie.Deaggregate([]netaddr.Prefix{l, m})
	var sb strings.Builder
	fmt.Fprintf(&sb, "announced: %v (l-prefix), %v (m-prefix)\n", l, m)
	fmt.Fprintf(&sb, "deaggregated partition (%d pieces):\n", len(pieces))
	var total uint64
	for _, p := range pieces {
		marker := ""
		if p == m {
			marker = "  <- announced m-prefix, kept intact"
		}
		fmt.Fprintf(&sb, "  %-18v /%d-sized%s\n", p, p.Bits(), marker)
		total += p.NumAddresses()
	}
	fmt.Fprintf(&sb, "partition covers %d addresses (= the /8: %v)\n",
		total, total == l.NumAddresses())
	return Result{
		ID:    "figure2",
		Title: "l-prefix decomposition around its m-prefix (minimal partition)",
		Text:  sb.String(),
	}, nil
}

// Figure3 regenerates the host-count distribution over prefix lengths
// /8../24, per measurement month, for both prefix universes. The paper
// plots FTP and HTTPS; we emit every protocol and report min/mean/max
// across the months, which is what the figure's clustered bars convey.
func Figure3(w *World) (Result, error) {
	var sb strings.Builder
	for _, uni := range []struct {
		label string
		part  rib.Partition
	}{
		{"less", w.U.Less},
		{"more", w.U.More},
	} {
		// Index prefix lengths once per universe; a length gets a value
		// per month only if some prefix of the universe has it.
		prefixes := uni.part.Prefixes()
		lenOf := make([]int, len(prefixes))
		var present [33]bool
		for i, p := range prefixes {
			lenOf[i] = p.Bits()
			present[lenOf[i]] = true
		}
		for _, proto := range w.Protocols() {
			series := w.Series[proto]
			// perLen[bits] collects one value per month.
			var perLen [33][]float64
			for m := 0; m < series.Months(); m++ {
				counts, _ := series.At(m).CountByPrefix(uni.part)
				var byLen [33]int
				for i, c := range counts {
					byLen[lenOf[i]] += c
				}
				for bits, c := range byLen {
					if present[bits] {
						perLen[bits] = append(perLen[bits], float64(c))
					}
				}
			}
			var tb stats.Table
			tb.AddRow("len", "min", "mean", "max")
			for bits := 8; bits <= 24; bits++ {
				vals := perLen[bits]
				if len(vals) == 0 {
					continue
				}
				min, max, _ := stats.MinMax(vals)
				tb.AddRow(fmt.Sprintf("/%d", bits),
					fmt.Sprintf("%.0f", min),
					fmt.Sprintf("%.0f", stats.Mean(vals)),
					fmt.Sprintf("%.0f", max))
			}
			fmt.Fprintf(&sb, "[%s prefixes, %s] hosts per prefix length over %d measurements\n%s\n",
				uni.label, proto, series.Months(), tb.String())
		}
	}
	return Result{
		ID:    "figure3",
		Title: "host distribution over prefix lengths (7 monthly measurements)",
		Text:  sb.String(),
	}, nil
}

// Figure4 regenerates the ranked-density curves: density, cumulative host
// coverage and cumulative address-space coverage by prefix rank.
func Figure4(w *World) (Result, error) {
	var sb strings.Builder
	for _, uni := range []struct {
		label string
		part  rib.Partition
	}{
		{"less", w.U.Less},
		{"more", w.U.More},
	} {
		for _, proto := range []string{"ftp", "http"} {
			if _, ok := w.Series[proto]; !ok {
				continue
			}
			seed := w.Series[proto].At(0)
			ranked := w.Rank(seed, uni.part)
			curve := core.CoverageCurve(ranked, uni.part.AddressCount(), 16)
			var tb stats.Table
			tb.AddRow("rank", "density", "hostCov", "spaceCov")
			for _, pt := range curve {
				tb.AddRow(fmt.Sprintf("%d", pt.Rank),
					fmt.Sprintf("%.2e", pt.Density),
					fmt.Sprintf("%.3f", pt.HostCov),
					fmt.Sprintf("%.3f", pt.SpaceShare))
			}
			fmt.Fprintf(&sb, "[%s prefixes, %s] %d responsive prefixes\n%s\n",
				uni.label, proto, len(ranked), tb.String())
		}
	}
	return Result{
		ID:    "figure4",
		Title: "prefixes ranked by density: density, host coverage, space coverage",
		Text:  sb.String(),
	}, nil
}

// Figure5 regenerates the hitlist accuracy-over-time simulation.
func Figure5(w *World) (Result, error) {
	var tb stats.Table
	header := []string{"protocol"}
	for m := 0; m <= w.Cfg.Months; m++ {
		header = append(header, fmt.Sprintf("m%d", m))
	}
	tb.AddRow(header...)
	for _, proto := range w.Protocols() {
		ev, err := strategy.Evaluate(strategy.Hitlist{}, w.Series[proto], w.U.Less.AddressCount())
		if err != nil {
			return Result{}, fmt.Errorf("figure5 %s: %w", proto, err)
		}
		row := []string{proto}
		for _, h := range ev.Hitrate {
			row = append(row, fmt.Sprintf("%.3f", h))
		}
		tb.AddRow(row...)
	}
	return Result{
		ID:    "figure5",
		Title: "hitrate of IP address hitlists over time",
		Text:  tb.String(),
	}, nil
}

// Figure6 regenerates TASS accuracy over time at φ=1 (panel a) and
// φ=0.95 (panel b), for both prefix universes, plus the fitted monthly
// decay slope the paper quotes (−0.3 %/month l, up to −0.7 %/month m).
func Figure6(w *World) (Result, error) {
	var sb strings.Builder
	months := make([]float64, w.Cfg.Months+1)
	for i := range months {
		months[i] = float64(i)
	}
	for _, phi := range []float64{1, 0.95} {
		var tb stats.Table
		header := []string{"variant"}
		for m := 0; m <= w.Cfg.Months; m++ {
			header = append(header, fmt.Sprintf("m%d", m))
		}
		header = append(header, "slope/mo")
		tb.AddRow(header...)
		for _, uni := range []struct {
			label string
			part  rib.Partition
		}{
			{"l", w.U.Less},
			{"m", w.U.More},
		} {
			for _, proto := range w.Protocols() {
				s := w.TASS(uni.part, core.Options{Phi: phi},
					fmt.Sprintf("%s-%s", proto, uni.label))
				ev, err := strategy.Evaluate(s, w.Series[proto], w.U.Less.AddressCount())
				if err != nil {
					return Result{}, fmt.Errorf("figure6 φ=%v %s/%s: %w", phi, uni.label, proto, err)
				}
				row := []string{ev.Strategy}
				for _, h := range ev.Hitrate {
					row = append(row, fmt.Sprintf("%.3f", h))
				}
				slope, _ := stats.LinearFit(months, ev.Hitrate)
				row = append(row, fmt.Sprintf("%+.4f", slope))
				tb.AddRow(row...)
			}
		}
		fmt.Fprintf(&sb, "φ = %g\n%s\n", phi, tb.String())
	}
	return Result{
		ID:    "figure6",
		Title: "hitrate of TASS compared to a full scan (φ=1 and φ=0.95)",
		Text:  sb.String(),
	}, nil
}
