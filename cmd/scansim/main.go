// Command scansim generates a synthetic announced Internet, simulates
// monthly churn, and writes the resulting census snapshot series plus the
// announced table — the offline stand-in for six months of censys.io
// full-IPv4 scans.
//
// Usage:
//
//	scansim -out DIR [-seed N] [-scale F] [-months N] [-workers N]
//	        [-scancycles N] [-scanproto P] [-scanphi F] [-scanloss F]
//	        [-scanbudget N] [-cpuprofile F] [-memprofile F]
//
// DIR receives one <protocol>.census file (back-to-back binary
// snapshots, see the census package) and announced.pfx2as. With
// -scancycles > 0 scansim additionally closes the paper's loop against
// its own ground truth: the sharded scan engine runs a lossy simulated
// feedback campaign (full seed scan, then scan-select-rescan, one cycle
// per churned month) and reports per-cycle hitrate and cost.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tass-scan/tass"
	"github.com/tass-scan/tass/internal/prof"
)

func main() {
	var (
		out        = flag.String("out", "", "output directory (required)")
		seed       = flag.Int64("seed", 1, "generation seed (churn uses seed+1)")
		scale      = flag.Float64("scale", 0.05, "universe scale (1.0 = paper scale)")
		months     = flag.Int("months", 6, "churn months (writes months+1 snapshots)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines (output is identical at any count)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		scanCycles = flag.Int("scancycles", 0, "simulate a live feedback scan campaign with this many cycles (0 = off)")
		scanProto  = flag.String("scanproto", "ftp", "protocol the campaign probes")
		scanPhi    = flag.Float64("scanphi", 0.95, "host coverage target φ for campaign re-selection")
		scanLoss   = flag.Float64("scanloss", 0.03, "simulated probe loss rate in [0,1)")
		scanBudget = flag.Uint64("scanbudget", 0, "campaign probe budget per origin AS per cycle (0 = unlimited); prints the per-AS footprint summary")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "scansim: -out is required")
		os.Exit(2)
	}
	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scansim:", err)
		os.Exit(1)
	}
	if err := run(*out, *seed, *scale, *months, *workers, campaignConfig{
		cycles: *scanCycles,
		proto:  *scanProto,
		phi:    *scanPhi,
		loss:   *scanLoss,
		budget: *scanBudget,
	}); err != nil {
		stopCPU()
		fmt.Fprintln(os.Stderr, "scansim:", err)
		os.Exit(1)
	}
	stopCPU()
	if err := prof.WriteHeap(*memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "scansim:", err)
		os.Exit(1)
	}
}

// campaignConfig parameterizes the optional scan-in-the-loop pass.
type campaignConfig struct {
	cycles int
	proto  string
	phi    float64
	loss   float64
	budget uint64
}

func run(dir string, seed int64, scale float64, months, workers int, camp campaignConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	cfg := tass.ScaledUniverseConfig(seed, scale)
	cfg.Workers = workers
	u, err := tass.GenerateUniverse(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "universe: %d announced prefixes, %d l-prefixes, %.2g addresses announced\n",
		u.Table.Len(), u.Less.Len(), float64(u.Less.AddressCount()))

	tablePath := filepath.Join(dir, "announced.pfx2as")
	tf, err := os.Create(tablePath)
	if err != nil {
		return err
	}
	if err := tass.WritePfx2as(tf, u.Table); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}

	series := tass.SimulateSeries(u, seed+1, months, tass.SimConfig{Workers: workers})
	for _, name := range u.Protocols() {
		path := filepath.Join(dir, name+".census")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := series[name].WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d snapshots, %d hosts at month 0 -> %s\n",
			name, series[name].Months(), series[name].At(0).Hosts(), path)
	}
	if camp.cycles > 0 {
		if err := runCampaign(u, series, camp, seed, workers); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runCampaign closes the loop against the freshly generated ground
// truth: cycle i probes the month-i snapshot (the last month repeats
// once the series runs out) through a lossy simulated prober, and every
// cycle's results seed the next cycle's selection.
func runCampaign(u *tass.Universe, series map[string]*tass.Series, camp campaignConfig, seed int64, workers int) error {
	truth, ok := series[camp.proto]
	if !ok {
		return fmt.Errorf("campaign: unknown protocol %q", camp.proto)
	}
	c := &tass.ScanCampaign{
		Universe: u.More,
		ProberAt: func(cycle int) tass.Prober {
			m := cycle
			if m >= truth.Months() {
				m = truth.Months() - 1
			}
			// Per-cycle seed: loss is transient per scan, not a permanent
			// property of an address.
			p, err := tass.NewSimProber(truth.At(m).Addrs, camp.loss, seed+900+int64(cycle))
			if err != nil {
				panic(err) // loss validated below before Run
			}
			return p
		},
		Opts:     tass.Options{Phi: camp.phi},
		Workers:  workers,
		Seed:     seed + 901,
		Cache:    tass.NewCountCache(),
		Protocol: camp.proto,
	}
	if camp.budget > 0 {
		// The synthetic table carries synthetic origins: the budget and
		// footprint machinery runs exactly as it would on a real pfx2as.
		c.Politeness = tass.ScanPoliteness{ASBudget: camp.budget, Footprint: true}
		c.OriginsOf = u.Table.OriginsOf
	}
	if _, err := tass.NewSimProber(nil, camp.loss, 0); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	fmt.Fprintf(os.Stderr, "campaign: %s over %d m-prefixes, φ=%.2f, %.0f%% loss\n",
		camp.proto, u.More.Len(), camp.phi, 100*camp.loss)
	cycles, err := c.Run(context.Background(), camp.cycles)
	for _, cy := range cycles {
		m := cy.Index
		if m >= truth.Months() {
			m = truth.Months() - 1
		}
		fmt.Fprintf(os.Stderr, "  cycle %d: %6d pfx, %12d probed, %8d found, hitrate vs truth %.3f, cost share %.3f\n",
			cy.Index, cy.Plan.Len(), cy.Report.Probed, cy.Snapshot.Hosts(),
			cy.Hitrate(truth.At(m)), cy.CostShare(u.More))
		if camp.budget > 0 && cy.Report.PerAS != nil {
			capped := 0
			for _, st := range cy.Report.PerAS {
				if st.BudgetDenied > 0 {
					capped++
				}
			}
			fmt.Fprintf(os.Stderr, "           budget %d/AS: %d ASes touched, %d capped, %d probes denied\n",
				camp.budget, len(cy.Report.PerAS), capped, cy.Report.BudgetDenied)
		}
		if cy.Note != "" {
			fmt.Fprintf(os.Stderr, "  %s\n", cy.Note)
		}
	}
	return err
}
