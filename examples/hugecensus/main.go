// Hugecensus: select from a census far bigger than you want in RAM.
//
// The program generates a synthetic ~50M-address census (a stand-in
// for a full-universe survey like the paper's censys.io seed), writes
// it as a v1 snapshot stream, converts it to the indexed TASSNAP3
// format (the `tass convert -in` path, which decodes the stream whole),
// and then runs a TASS selection from a cold open — timing the open,
// counting pass, and selection, and asserting that the heap stays
// under a stated budget that is a small fraction of the decoded
// census.
//
// The budget is the point: the decoded census alone is 4 bytes per
// host (200 MB at 50M), while the lazy snapshot holds only the block
// index (~0.5 bytes per host) plus a bounded LRU of decoded blocks.
// The program exits non-zero if the budget is exceeded, so CI can run
// it as a regression smoke (scaled down via HUGECENSUS_HOSTS).
//
//	go run ./examples/hugecensus
//	HUGECENSUS_HOSTS=3000000 go run ./examples/hugecensus
package main

import (
	"bufio"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/tass-scan/tass"
)

func main() {
	hosts := 50_000_000
	if s := os.Getenv("HUGECENSUS_HOSTS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			log.Fatalf("HUGECENSUS_HOSTS=%q: want a positive integer", s)
		}
		hosts = n
	}
	// Heap budget for the select-from-cold-open phase: the block index
	// (~0.5 B/host) plus fixed headroom for the decoded-block LRU, the
	// universe partition and the counting scratch. The eager baseline —
	// just the decoded address slice — is 4 B/host.
	budget := uint64(hosts) + 48<<20

	dir, err := os.MkdirTemp("", "hugecensus")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("generating a %d-host synthetic census...\n", hosts)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]tass.Addr, 0, hosts)
	v := uint32(0)
	for len(addrs) < hosts {
		if rng.Intn(1000) == 0 {
			v += uint32(rng.Intn(1 << 18)) // a run of dark space
		}
		v += 1 + uint32(rng.Intn(120))
		addrs = append(addrs, tass.Addr(v))
	}
	last := addrs[len(addrs)-1]
	snap := tass.NewSnapshot("census", 0, addrs)

	v1Path := filepath.Join(dir, "census.v1")
	f, err := os.Create(v1Path)
	if err != nil {
		log.Fatal(err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := snap.WriteTo(w); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// Convert the v1 stream to the indexed format. A v1 stream has no
	// block index, so the conversion decodes it whole; the heap budget
	// below covers only the reads of the converted file.
	snapPath := filepath.Join(dir, "census.snap")
	in, err := os.Open(v1Path)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := tass.ConvertSnapshotFile(bufio.NewReaderSize(in, 1<<20), snapPath); err != nil {
		log.Fatal(err)
	}
	in.Close()
	st, _ := os.Stat(snapPath)
	fmt.Printf("converted to TASSNAP3 in %v: %d bytes on disk (%.2f B/host)\n",
		time.Since(start).Round(time.Millisecond), st.Size(), float64(st.Size())/float64(hosts))

	// The universe: /12 slices across the populated span.
	var pfx []tass.Prefix
	for base := uint64(0); base <= uint64(last); base += 1 << 20 {
		p, err := tass.ParsePrefix(fmt.Sprintf("%v/12", tass.Addr(base)))
		if err != nil {
			log.Fatal(err)
		}
		pfx = append(pfx, p)
	}
	universe, err := tass.NewPartition(pfx)
	if err != nil {
		log.Fatal(err)
	}

	// Drop every trace of the generation phase before measuring: from
	// here on, the census exists only as a file.
	addrs, snap = nil, nil
	runtime.GC()

	start = time.Now()
	lazySnap, err := tass.OpenSnapshotFile(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	defer lazySnap.Close()
	openTime := time.Since(start)
	if !lazySnap.Lazy() {
		log.Fatal("snapshot did not open lazily")
	}

	start = time.Now()
	sel, err := tass.SelectCached(lazySnap, universe, tass.Options{Phi: 0.95}, 8, nil)
	if err != nil {
		log.Fatal(err)
	}
	selectTime := time.Since(start)

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Printf("cold open: %v; select (φ=0.95, %d-prefix universe): %v\n",
		openTime.Round(time.Microsecond), universe.Len(), selectTime.Round(time.Millisecond))
	fmt.Printf("%s\n", tass.Describe(sel))
	fmt.Printf("resident blocks after select: %d\n", lazySnap.Set().ResidentBlocks())
	fmt.Printf("heap in use: %.1f MB (budget %.1f MB; decoded census would be %.1f MB)\n",
		float64(m.HeapInuse)/(1<<20), float64(budget)/(1<<20), float64(4*hosts)/(1<<20))
	if m.HeapInuse > budget {
		log.Fatalf("heap %.1f MB exceeds the %.1f MB budget: the lazy stack is materializing something",
			float64(m.HeapInuse)/(1<<20), float64(budget)/(1<<20))
	}
	fmt.Println("ok: selected from a cold open without decoding the census")
}
