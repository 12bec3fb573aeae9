// Livescan: run the real scanner engine end to end on the loopback
// network — actual TCP sockets, sharded permutation targeting, rate
// limiting and banner grabbing — then close the paper's loop with a
// feedback campaign: the first cycle's results seed a TASS selection,
// and the second cycle scans only the selected (dense) blocks.
//
// The program starts a handful of listeners on 127.0.0.0/28 addresses,
// scans that /28 with the TCP prober, prints each cycle's report, and
// shows how the campaign tightened the plan. It touches nothing outside
// the loopback interface.
//
//	go run ./examples/livescan
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"github.com/tass-scan/tass"
)

func main() {
	// 1. Local "Internet": FTP-style listeners on a few loopback
	//    addresses, clustered so TASS has density structure to find.
	//    (On Linux every 127.0.0.0/8 address is bound to lo.)
	liveHosts := []string{"127.0.0.1", "127.0.0.2", "127.0.0.3", "127.0.0.9"}
	port := 0
	var listeners []net.Listener
	for _, host := range liveHosts {
		addr := host + ":0"
		if port != 0 {
			addr = fmt.Sprintf("%s:%d", host, port)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatalf("listen %s: %v (loopback aliases unavailable?)", addr, err)
		}
		if port == 0 {
			port = ln.Addr().(*net.TCPAddr).Port
		}
		defer ln.Close()
		listeners = append(listeners, ln)
		go serveFTPBanner(ln)
	}
	fmt.Printf("started %d listeners on port %d\n", len(listeners), port)

	// 2. The scanning universe: /30 blocks of 127.0.0.0/28, the stand-in
	//    for announced prefixes. Three of the four listeners live in the
	//    first block — the density skew TASS exploits.
	blocks := []tass.Prefix{
		tass.MustParsePrefix("127.0.0.0/30"),
		tass.MustParsePrefix("127.0.0.4/30"),
		tass.MustParsePrefix("127.0.0.8/30"),
		tass.MustParsePrefix("127.0.0.12/30"),
	}
	universe, err := tass.NewPartition(blocks)
	if err != nil {
		log.Fatal(err)
	}

	// Synthetic origin ASes for the good-citizen layer: the first two
	// blocks belong to AS 64500, the last two to AS 64501 (the private
	// AS range) — the stand-in for a pfx2as table's origin mapping.
	originOf := func(plan tass.Partition) []uint32 {
		out := make([]uint32, plan.Len())
		for i := 0; i < plan.Len(); i++ {
			if j, ok := universe.Find(plan.Prefix(i).First()); ok && j >= 2 {
				out[i] = 64501
			} else {
				out[i] = 64500
			}
		}
		return out
	}

	// 3. The feedback campaign: cycle 0 scans the whole universe with
	//    the real engine (permuted order, rate limited, concurrent
	//    workers, banner grab); its results seed a φ=0.75 selection;
	//    cycle 1 scans only the selected dense blocks. The politeness
	//    layer paces each synthetic AS separately and keeps the per-AS
	//    footprint ledger printed below.
	campaign := &tass.ScanCampaign{
		Universe: universe,
		Prober:   &tass.TCPProber{Port: port, Timeout: 500 * time.Millisecond, BannerBytes: 64},
		Opts:     tass.Options{Phi: 0.75},
		Rate:     64, // probes per second: deliberately gentle
		Workers:  4,
		Seed:     time.Now().UnixNano(),
		Politeness: tass.ScanPoliteness{
			ASRate:    48, // no single origin AS sees the full global rate
			Footprint: true,
		},
		OriginsOf: originOf,
		OnResult: func(r tass.ScanResult) {
			if r.Open {
				fmt.Printf("  open %-12v rtt=%-8v banner=%q\n", r.Addr, r.RTT.Round(time.Microsecond), r.Banner)
			}
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cycles, err := campaign.Run(ctx, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, cy := range cycles {
		fmt.Printf("\ncycle %d: %d prefixes, %d probed, %d responsive, hitrate %.1f%%, cost %.0f%% of universe, %v elapsed\n",
			cy.Index, cy.Plan.Len(), cy.Report.Probed, cy.Snapshot.Hosts(),
			100*cy.Report.Hitrate(), 100*cy.CostShare(universe),
			cy.Report.Elapsed.Round(time.Millisecond))
		fmt.Printf("per-AS footprint of cycle %d:\n", cy.Index)
		if err := tass.WriteFootprint(os.Stdout, cy.Plan, originOf(cy.Plan), cy.Report); err != nil {
			log.Fatal(err)
		}
	}

	// 4. The selection the campaign derived from the live scan — what a
	//    periodic re-scan would keep probing.
	//    A cycle that found nothing has no selection: the campaign
	//    finished early and its note says so.
	sel := cycles[0].Selection
	if sel == nil {
		fmt.Printf("\nno selection: %s\n", cycles[0].Note)
		return
	}
	fmt.Printf("\nTASS on cycle 0's scan (φ=0.75 over /30 blocks): %s\n", tass.Describe(sel))
	for i, st := range sel.Ranked {
		mark := " "
		if i < sel.K {
			mark = "*"
		}
		fmt.Printf("  %s %-14v %d hosts, density %.2f\n", mark, st.Prefix, st.Hosts, st.Density)
	}
	fmt.Println("\n(*) selected: cycle 1 probed exactly these blocks.")
}

func serveFTPBanner(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fmt.Fprintf(conn, "220 %s synthetic FTP service ready\r\n", ln.Addr())
		conn.Close()
	}
}
