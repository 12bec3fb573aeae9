// Command experiments regenerates every table and figure of the TASS
// paper on the synthetic universe and prints them as text tables.
//
// Usage:
//
//	experiments [-seed N] [-scale F] [-months N] [-workers N]
//	            [-cpuprofile F] [-memprofile F] [-run id,id,...] [-list]
//
// -scale 1.0 (default) is the paper-scale universe (≈3.7 B allocated
// addresses, ≈7 M hosts; a run takes tens of seconds). Use -scale 0.01
// for a quick pass. -workers bounds the goroutines used for world
// building (striped churn included) and the experiment pool (default:
// GOMAXPROCS); any worker count produces identical output. One
// per-(snapshot, partition) count memo is shared across all
// experiments. -cpuprofile/-memprofile record runtime/pprof profiles
// for hot-path work. -list prints the experiment IDs and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"github.com/tass-scan/tass/internal/experiment"
	"github.com/tass-scan/tass/internal/prof"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "universe seed (churn uses seed+1)")
		scale      = flag.Float64("scale", 1.0, "universe scale: 1.0 = paper scale")
		months     = flag.Int("months", 6, "churn months (paper: 6 → 7 snapshots)")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines (output is identical at any count)")
		run        = flag.String("run", "", "comma-separated experiment ids (default: all)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	stopCPU, err := prof.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	// os.Exit skips defers, so every exit path below must flush the
	// profile explicitly — failing runs are exactly the ones profiled.
	fail := func(err error) {
		stopCPU()
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopCPU()

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Println(id)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		// After the first interrupt, unregister so a second Ctrl-C
		// terminates immediately instead of waiting for in-flight
		// experiments to drain.
		<-ctx.Done()
		stop()
	}()

	cfg := experiment.Config{Seed: *seed, Months: *months, Scale: *scale, Workers: *workers}
	start := time.Now()
	fmt.Fprintf(os.Stderr, "building universe (seed=%d scale=%g months=%d workers=%d)...\n",
		*seed, *scale, *months, *workers)
	w, err := experiment.BuildWorld(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "world ready in %v: %d announced prefixes, %d l-prefixes, %d m-pieces\n",
		time.Since(start).Round(time.Millisecond),
		w.U.Table.Len(), w.U.Less.Len(), w.U.More.Len())

	var ids []string
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	// Results stream in report order as they complete; on failure or
	// Ctrl-C the completed prefix has already been printed.
	err = experiment.StreamAll(ctx, w, func(res experiment.Result) {
		fmt.Println(res.String())
	}, ids...)
	if err != nil {
		fail(err)
	}
	if hits, misses := w.Cache.Stats(); hits+misses > 0 {
		fmt.Fprintf(os.Stderr, "count cache: %d hits, %d misses\n", hits, misses)
	}
	if err := prof.WriteHeap(*memprofile); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}
