// Command tass computes TASS prefix selections from scan results and
// drives the probing engine itself.
//
// Usage:
//
//	tass select -pfx2as TABLE -addrs ADDRS [-phi 0.95] [-universe more]
//	tass select -pfx2as TABLE -census-file FILE [-phi 0.95]
//	tass select -6 -prefixes CIDRS -addrs ADDRS [-phi 0.95]
//	tass rank   -pfx2as TABLE (-addrs ADDRS | -census-file FILE) [-top 20]
//	tass stats  -pfx2as TABLE
//	tass convert (-addrs ADDRS | -in SNAPFILE) -o FILE [-verify]
//	tass scan   -targets PREFIXES (-sim ADDRS | -port N) [flags]
//	tass coordinate -listen ADDR -state FILE [-campaign ID -targets PREFIXES] [flags]
//	tass work   -coordinator URL -campaign ID (-sim ADDRS | -port N) [flags]
//
// TABLE is a CAIDA Routeviews pfx2as file; ADDRS is a text file with one
// responsive IPv4 address per line ('#' comments allowed). "select"
// prints the prefixes to scan each cycle, "rank" the densest prefixes,
// "stats" the aggregation structure of the table. "scan" runs the
// sharded scan engine over a prefix list: one checkpointable cycle
// (-checkpoint resumes an interrupted run; -shard/-shards split the
// cycle across machines), or a feedback campaign (-cycles N) that
// re-selects from each cycle's results and scans the tightened plan.
//
// "convert" writes a census into the indexed TASSNAP3 snapshot format,
// which -census-file then opens in O(index) and decodes block by block
// as selection counts over it — a multi-gigabyte census seeds select,
// rank, or a scan campaign without ever being resident in memory.
//
// "coordinate" and "work" run the same feedback campaign across a fleet:
// the coordinator owns the campaign state machine (durably, in -state)
// and hands time-bounded shard leases to workers over HTTP; a worker
// that crashes has its shard re-leased from its last uploaded
// checkpoint, and a restarted coordinator resumes mid-campaign from its
// state file. See DESIGN.md §13.
//
// With -6, "select" runs the same engine over IPv6: the universe is an
// announced-prefix list (covered more-specifics are collapsed) and the
// addresses are passive observations or hitlist probes, since there is
// no full IPv6 scan to seed from.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/tass-scan/tass"
	"github.com/tass-scan/tass/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "select":
		err = runSelect(os.Args[2:])
	case "rank":
		err = runRank(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "diff":
		err = runDiff(os.Args[2:])
	case "convert":
		err = runConvert(os.Args[2:])
	case "fsck":
		err = runFsck(os.Args[2:])
	case "scan":
		err = runScan(os.Args[2:])
	case "coordinate":
		err = runCoordinate(os.Args[2:])
	case "work":
		err = runWork(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "tass: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tass:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tass select -pfx2as TABLE (-addrs ADDRS | -census-file FILE)
              [-phi F] [-universe less|more] [-min-density F]
  tass select -6 -prefixes CIDRS -addrs ADDRS [-phi F]
  tass rank   -pfx2as TABLE (-addrs ADDRS | -census-file FILE)
              [-universe less|more] [-top N]
  tass stats  -pfx2as TABLE
  tass diff   -a ADDRS -b ADDRS
  tass convert (-addrs ADDRS | -in SNAPFILE) -o FILE [-verify]
  tass fsck   [-repair] FILE...
  tass scan   -targets PREFIXES (-sim ADDRS | -port N) [-cycles N] [-phi F]
              [-census-file FILE]
              [-rate F] [-burst N] [-workers N]
              [-shard I -shards N] [-checkpoint FILE] [-exclude FILE]
              [-seed N] [-max N] [-loss F]
              [-cpuprofile FILE] [-memprofile FILE]
  tass coordinate -listen ADDR -state FILE [-campaign ID -targets PREFIXES]
              [-cycles N] [-shards N] [-phi F] [-seed N] [-workers N]
              [-lease-ttl D] [-chunk N] [-rate F] [-exclude FILE]
              [-prefix-rate F] [-prefix-burst N]
  tass work   -coordinator URL -campaign ID (-sim ADDRS | -port N)
              [-id NAME] [-loss F] [-seed N] [-exclude FILE]`)
}

func loadTable(path string) (*tass.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tass.ReadPfx2as(f)
}

func loadAddrs(path string) (*tass.Snapshot, error) {
	var addrs []tass.Addr
	err := eachLine(path, func(line int, text string) error {
		a, err := tass.ParseAddr(text)
		if err != nil {
			return fmt.Errorf("%s line %d: %w", path, line, err)
		}
		addrs = append(addrs, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tass.NewSnapshot("scan", 0, addrs), nil
}

// loadSeed loads the seed snapshot of select/rank/scan: from a census
// snapshot file when -census-file is set (a TASSNAP3 file opens in
// O(index) and decodes on demand; older formats are rejected naming
// their upgrade command), otherwise from the -addrs text file. With
// degraded, storage corruption in a lazy census is skipped block by
// block instead of failing the run (the faults are reported by
// reportStorageFaults). The returned cleanup releases the file backing
// a lazy snapshot — the snapshot must not be used after it runs.
func loadSeed(addrsPath, censusPath string, degraded bool) (*tass.Snapshot, func(), error) {
	if censusPath == "" {
		snap, err := loadAddrs(addrsPath)
		return snap, func() {}, err
	}
	snap, err := tass.OpenSnapshotFile(censusPath)
	if err != nil {
		return nil, nil, fmt.Errorf("census-file %s: %w", censusPath, err)
	}
	if degraded {
		snap.SetFaultPolicy(tass.FaultDegrade)
	}
	return snap, func() { snap.Close() }, nil
}

// reportStorageFaults prints every storage fault a counting pass over
// the seed recorded — under -degraded this is the operator's only
// signal that counts are missing damaged blocks' hosts.
func reportStorageFaults(snap *tass.Snapshot) {
	for _, f := range snap.StorageFaults() {
		fmt.Fprintf(os.Stderr, "# census storage fault (skipped): %v\n", &f)
	}
}

// loadAddrs6 reads IPv6 seed observations, one address per line with
// '#' comments, as produced by passive collection or hitlist probing.
func loadAddrs6(path string) ([]tass.Addr6, error) {
	var addrs []tass.Addr6
	err := eachLine(path, func(line int, text string) error {
		a, err := tass.ParseAddr6(text)
		if err != nil {
			return fmt.Errorf("%s line %d: %w", path, line, err)
		}
		addrs = append(addrs, a)
		return nil
	})
	return addrs, err
}

// loadPrefixes6 reads an announced IPv6 table, one CIDR per line with
// '#' comments. Covered more-specifics are allowed; the universe build
// collapses them.
func loadPrefixes6(path string) ([]tass.Prefix6, error) {
	var ps []tass.Prefix6
	err := eachLine(path, func(line int, text string) error {
		p, err := tass.ParsePrefix6(text)
		if err != nil {
			return fmt.Errorf("%s line %d: %w", path, line, err)
		}
		ps = append(ps, p)
		return nil
	})
	return ps, err
}

// eachLine calls fn for every non-empty line of a text file, with '#'
// comments stripped.
func eachLine(path string, fn func(line int, text string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		if err := fn(line, text); err != nil {
			return err
		}
	}
	return sc.Err()
}

func universeOf(t *tass.Table, which string) (tass.Partition, error) {
	switch which {
	case "less", "l":
		return t.LessSpecifics(), nil
	case "more", "m":
		return t.Deaggregated(), nil
	}
	return tass.Partition{}, fmt.Errorf("unknown universe %q (want less or more)", which)
}

func runSelect(args []string) error {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	tablePath := fs.String("pfx2as", "", "CAIDA pfx2as table (required for IPv4)")
	addrsPath := fs.String("addrs", "", "responsive addresses, one per line (required)")
	phi := fs.Float64("phi", 0.95, "host coverage target φ in (0,1]")
	universe := fs.String("universe", "more", "prefix universe: less or more")
	minDensity := fs.Float64("min-density", 0, "stop below this density (0 = off)")
	censusPath := fs.String("census-file", "", "seed from a TASSNAP3 census snapshot file (see convert) instead of -addrs")
	degraded := fs.Bool("degraded", false, "with -census-file: skip corrupt census blocks instead of failing (faults reported on stderr)")
	six := fs.Bool("6", false, "IPv6 mode: select over an announced-prefix universe")
	prefixesPath := fs.String("prefixes", "", "announced IPv6 prefixes, one CIDR per line (required with -6)")
	fs.Parse(args)
	if *six {
		return runSelect6(*prefixesPath, *addrsPath, *phi)
	}
	if *tablePath == "" || (*addrsPath == "") == (*censusPath == "") {
		return fmt.Errorf("select: -pfx2as and exactly one of -addrs and -census-file are required")
	}
	table, err := loadTable(*tablePath)
	if err != nil {
		return err
	}
	seed, cleanup, err := loadSeed(*addrsPath, *censusPath, *degraded)
	if err != nil {
		return err
	}
	defer cleanup()
	part, err := universeOf(table, *universe)
	if err != nil {
		return err
	}
	sel, err := tass.Select(seed, part, tass.Options{Phi: *phi, MinDensity: *minDensity})
	reportStorageFaults(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# %s\n", tass.Describe(sel))
	w := bufio.NewWriter(os.Stdout)
	for _, p := range sel.Partition().Prefixes() {
		fmt.Fprintln(w, p)
	}
	return w.Flush()
}

// runSelect6 is the IPv6 half of "tass select": the universe comes
// from an announced-prefix list instead of a pfx2as table (covered
// more-specifics are collapsed, the l-prefix view), the seeds from
// passive observations or hitlist probes rather than a full scan.
func runSelect6(prefixesPath, addrsPath string, phi float64) error {
	if prefixesPath == "" || addrsPath == "" {
		return fmt.Errorf("select -6: -prefixes and -addrs are required")
	}
	announced, err := loadPrefixes6(prefixesPath)
	if err != nil {
		return err
	}
	u, err := tass.NewUniverse6FromAnnounced(announced)
	if err != nil {
		return err
	}
	seeds, err := loadAddrs6(addrsPath)
	if err != nil {
		return err
	}
	sel, err := tass.Select6(seeds, u, phi)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# %s\n", tass.Describe6(sel))
	w := bufio.NewWriter(os.Stdout)
	for _, p := range sel.Prefixes() {
		fmt.Fprintln(w, p)
	}
	return w.Flush()
}

func runRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	tablePath := fs.String("pfx2as", "", "CAIDA pfx2as table (required)")
	addrsPath := fs.String("addrs", "", "responsive addresses, one per line (required)")
	universe := fs.String("universe", "more", "prefix universe: less or more")
	top := fs.Int("top", 20, "how many ranks to print")
	censusPath := fs.String("census-file", "", "seed from a TASSNAP3 census snapshot file (see convert) instead of -addrs")
	degraded := fs.Bool("degraded", false, "with -census-file: skip corrupt census blocks instead of failing (faults reported on stderr)")
	fs.Parse(args)
	if *tablePath == "" || (*addrsPath == "") == (*censusPath == "") {
		return fmt.Errorf("rank: -pfx2as and exactly one of -addrs and -census-file are required")
	}
	table, err := loadTable(*tablePath)
	if err != nil {
		return err
	}
	seed, cleanup, err := loadSeed(*addrsPath, *censusPath, *degraded)
	if err != nil {
		return err
	}
	defer cleanup()
	part, err := universeOf(table, *universe)
	if err != nil {
		return err
	}
	ranked := tass.Rank(seed, part)
	reportStorageFaults(seed)
	if err := seed.StorageErr(); err != nil {
		return fmt.Errorf("rank: census storage fault: %w", err)
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# %d responsive prefixes, %d hosts\n", len(ranked), seed.Hosts())
	fmt.Fprintln(w, "# rank\tprefix\thosts\tdensity\tcoverage")
	for i, st := range ranked {
		if i >= *top {
			break
		}
		fmt.Fprintf(w, "%d\t%v\t%d\t%.3g\t%.4f\n", i+1, st.Prefix, st.Hosts, st.Density, st.Coverage)
	}
	return w.Flush()
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	aPath := fs.String("a", "", "earlier scan's addresses (required)")
	bPath := fs.String("b", "", "later scan's addresses (required)")
	fs.Parse(args)
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("diff: -a and -b are required")
	}
	a, err := loadAddrs(*aPath)
	if err != nil {
		return err
	}
	b, err := loadAddrs(*bPath)
	if err != nil {
		return err
	}
	d := tass.DiffSnapshots(a, b)
	fmt.Printf("earlier:   %d hosts\n", a.Hosts())
	fmt.Printf("later:     %d hosts\n", b.Hosts())
	fmt.Printf("kept:      %d\n", d.Kept)
	fmt.Printf("lost:      %d\n", d.Lost)
	fmt.Printf("new:       %d\n", d.New)
	fmt.Printf("retention: %.3f\n", d.Retention())
	return nil
}

// runConvert writes a census into the indexed TASSNAP3 snapshot format:
// either a text address list (-addrs, decoded and sorted in memory) or
// a binary v1 snapshot stream (-in, the one upgrade path for v1 streams;
// a v1 stream has no block index, so it too is decoded whole before the
// file is written). The output opens in O(index) via -census-file.
func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	addrsPath := fs.String("addrs", "", "text addresses, one per line")
	inPath := fs.String("in", "", "binary v1 snapshot stream (Snapshot.WriteTo bytes)")
	outPath := fs.String("o", "", "output indexed snapshot file (required)")
	verify := fs.Bool("verify", false, "deep-check the written file: checksums plus a full decode")
	fs.Parse(args)
	if *outPath == "" {
		return fmt.Errorf("convert: -o is required")
	}
	if (*addrsPath == "") == (*inPath == "") {
		return fmt.Errorf("convert: exactly one of -addrs and -in is required")
	}
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		err = tass.ConvertSnapshotFile(bufio.NewReader(f), *outPath)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		snap, err := loadAddrs(*addrsPath)
		if err != nil {
			return err
		}
		if err := tass.WriteSnapshotFile(*outPath, snap); err != nil {
			return err
		}
	}
	if *verify {
		if err := tass.VerifySnapshotFile(*outPath); err != nil {
			return err
		}
	}
	snap, err := tass.OpenSnapshotFile(*outPath)
	if err != nil {
		return err
	}
	defer snap.Close()
	fmt.Fprintf(os.Stderr, "# %s: %d hosts (%s, month %d)\n",
		*outPath, snap.Hosts(), snap.Protocol, snap.Month)
	return nil
}

// runFsck scrubs (and with -repair fixes) tass on-disk artifacts —
// snapshot files, scan checkpoints, coordinator state — sniffing each
// file's kind from its leading bytes. Exit status: 0 when every file is
// clean (or was repaired), 1 when damage remains.
func runFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := fs.Bool("repair", false, "re-derive intact snapshot blocks into a fresh TASSNAP3 file (upgrading TASSNAP2), upgrade checksum-less checkpoints, quarantine what cannot be salvaged")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("fsck: at least one file is required")
	}
	damaged, convert := 0, 0
	for _, path := range fs.Args() {
		var res *tass.FsckResult
		var err error
		if *repair {
			res, err = tass.FsckRepair(path)
		} else {
			res, err = tass.FsckCheck(path)
		}
		if err != nil {
			return fmt.Errorf("fsck: %s: %w", path, err)
		}
		switch {
		case res.Clean:
			fmt.Printf("%s: %s: clean\n", path, res.Kind)
		case res.Repaired:
			fmt.Printf("%s: %s: repaired\n", path, res.Kind)
		case res.NeedsConversion:
			fmt.Printf("%s: %s: needs conversion (tass convert -in %s)\n", path, res.Kind, path)
			convert++
		default:
			fmt.Printf("%s: %s: DAMAGED\n", path, res.Kind)
			damaged++
		}
		for _, f := range res.Findings {
			fmt.Printf("  %s\n", f)
		}
		if res.QuarantinePath != "" {
			fmt.Printf("  quarantined: %s\n", res.QuarantinePath)
		}
		if res.Repaired && res.Kind == "snapshot" {
			fmt.Printf("  recovered %d addresses, lost %d\n", res.RecoveredHosts, res.LostAddrs)
		}
	}
	var problems []string
	if damaged > 0 {
		problems = append(problems, fmt.Sprintf("%d file(s) damaged (run with -repair to salvage)", damaged))
	}
	if convert > 0 {
		problems = append(problems, fmt.Sprintf("%d file(s) need conversion (tass convert -in FILE)", convert))
	}
	if len(problems) > 0 {
		return fmt.Errorf("fsck: %s", strings.Join(problems, "; "))
	}
	return nil
}

// runScan drives the probing engine: a single sharded, checkpointable
// scan cycle, or a multi-cycle feedback campaign (scan → select → scan
// the tightened plan). Responsive addresses go to stdout, one per line,
// ready for `tass select -addrs`.
func runScan(args []string) (err error) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	targetsPath := fs.String("targets", "", "prefixes to scan, one CIDR per line (required)")
	simPath := fs.String("sim", "", "simulate against this responsive-address file instead of real probes")
	loss := fs.Float64("loss", 0, "simulated probe loss rate in [0,1) (with -sim)")
	port := fs.Int("port", 0, "TCP connect port for real probes (careful: scan only networks you own)")
	cycles := fs.Int("cycles", 1, "feedback cycles: >1 re-selects from each cycle's results")
	phi := fs.Float64("phi", 0.95, "host coverage target φ for re-selection (with -cycles > 1)")
	censusPath := fs.String("census-file", "", "seed cycle 0 from this census snapshot file instead of scanning the full universe first (with -cycles > 1)")
	degraded := fs.Bool("degraded", false, "with -census-file: skip corrupt census blocks in the seed selection instead of failing (faults reported on stderr)")
	rate := fs.Float64("rate", 0, "probes per second (0 = unlimited)")
	burst := fs.Int("burst", 0, "rate limiter burst (default 64)")
	workers := fs.Int("workers", 0, "concurrent probe workers (default 16)")
	shard := fs.Int("shard", 0, "this instance's shard index (with -shards)")
	shards := fs.Int("shards", 1, "total shard count across scanner instances")
	checkpointPath := fs.String("checkpoint", "", "resume from this cursor file if it exists; write it on interruption")
	excludePath := fs.String("exclude", "", "ZMap-style exclusion file")
	reloadExclude := fs.Duration("reload-exclude", 0, "poll the -exclude file at this interval and apply changes mid-cycle (single cycle only)")
	seed := fs.Int64("seed", 1, "permutation seed (all shards of one scan must agree)")
	max := fs.Uint64("max", 0, "stop after this many probes (sampling mode)")
	pfx2asPath := fs.String("pfx2as", "", "CAIDA prefix-to-AS table mapping targets to origin ASes (required by the per-AS politeness flags)")
	asRate := fs.Float64("as-rate", 0, "probes per second into any single origin AS (0 = off; needs -pfx2as)")
	asBurst := fs.Int("as-burst", 0, "per-AS bucket burst (default 16)")
	prefixRate := fs.Float64("prefix-rate", 0, "probes per second into any single target prefix (0 = off)")
	prefixBurst := fs.Int("prefix-burst", 0, "per-prefix bucket burst (default 8)")
	budget := fs.Uint64("budget", 0, "max probes per origin AS per cycle, held across checkpoint resumes (needs -pfx2as)")
	backoffN := fs.Int("backoff", 0, "consecutive errors inside one AS that halve its rate (needs -as-rate)")
	footprint := fs.Bool("footprint", false, "print the per-origin-AS footprint table to stderr (needs -pfx2as)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	fs.Parse(args)

	if *targetsPath == "" {
		return fmt.Errorf("scan: -targets is required")
	}
	if (*simPath == "") == (*port == 0) {
		return fmt.Errorf("scan: exactly one of -sim and -port is required")
	}
	if *checkpointPath != "" && *cycles > 1 {
		return fmt.Errorf("scan: -checkpoint applies to single cycles only (selection state is not checkpointed)")
	}
	if *cycles > 1 && *shards > 1 {
		return fmt.Errorf("scan: -shards applies to single cycles only (a sharded campaign would re-select from partial scan results; merge shard outputs and re-select instead)")
	}
	if *cycles > 1 && *max > 0 {
		return fmt.Errorf("scan: -max applies to single cycles only (campaign cycles scan their full plan)")
	}
	if *censusPath != "" && *cycles <= 1 {
		return fmt.Errorf("scan: -census-file seeds a campaign's first selection (-cycles > 1); a single cycle scans -targets directly")
	}
	if *reloadExclude > 0 && *excludePath == "" {
		return fmt.Errorf("scan: -reload-exclude needs -exclude (the file to poll)")
	}
	if *reloadExclude > 0 && *cycles > 1 {
		return fmt.Errorf("scan: -reload-exclude applies to single cycles only (campaign cycles reload their list at cycle start)")
	}
	pol := tass.ScanPoliteness{
		ASRate:      *asRate,
		ASBurst:     *asBurst,
		PrefixRate:  *prefixRate,
		PrefixBurst: *prefixBurst,
		ASBudget:    *budget,
		Backoff:     tass.ScanBackoff{Threshold: *backoffN},
		Footprint:   *footprint,
	}
	perAS := *asRate > 0 || *budget > 0 || *backoffN > 0 || *footprint
	if perAS && *pfx2asPath == "" {
		return fmt.Errorf("scan: -as-rate/-budget/-backoff/-footprint need -pfx2as to map targets to origin ASes")
	}
	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		return err
	}
	defer func() {
		stopCPU()
		if herr := prof.WriteHeap(*memProfile); err == nil {
			err = herr
		}
	}()
	var asTable *tass.Table
	if *pfx2asPath != "" {
		f, err := os.Open(*pfx2asPath)
		if err != nil {
			return err
		}
		asTable, err = tass.ReadPfx2as(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *pfx2asPath, err)
		}
	}

	prefixes, err := loadPrefixFile(*targetsPath)
	if err != nil {
		return err
	}
	targets, err := tass.NewPartition(prefixes)
	if err != nil {
		return err
	}
	var prober tass.Prober
	if *simPath != "" {
		snap, err := loadAddrs(*simPath)
		if err != nil {
			return err
		}
		prober, err = tass.NewSimProber(snap.Addrs, *loss, *seed)
		if err != nil {
			return err
		}
	} else {
		prober = &tass.TCPProber{Port: *port, Timeout: 2 * time.Second}
	}
	var exclude []tass.Prefix
	if *excludePath != "" {
		if exclude, err = loadPrefixFile(*excludePath); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *cycles > 1 {
		var seedSnap *tass.Snapshot
		if *censusPath != "" {
			var cleanup func()
			if seedSnap, cleanup, err = loadSeed("", *censusPath, *degraded); err != nil {
				return err
			}
			defer cleanup()
			fmt.Fprintf(os.Stderr, "# seeding cycle 0 from %s: %d hosts\n", *censusPath, seedSnap.Hosts())
		}
		c := &tass.ScanCampaign{
			Universe:      targets,
			SeedSnapshot:  seedSnap,
			DegradedReads: *degraded,
			OnStorageFault: func(f tass.BlockError) {
				fmt.Fprintf(os.Stderr, "# census storage fault (skipped): %v\n", &f)
			},
			Prober:     prober,
			Opts:       tass.Options{Phi: *phi},
			Rate:       *rate,
			Burst:      *burst,
			Workers:    *workers,
			Seed:       *seed,
			Exclude:    exclude,
			Politeness: pol,
			Cache:      tass.NewCountCache(),
		}
		if asTable != nil {
			c.OriginsOf = asTable.OriginsOf
		}
		done, err := c.Run(ctx, *cycles)
		for _, cy := range done {
			fmt.Fprintf(os.Stderr, "# cycle %d: %d prefixes, %d probed, %d responsive, hitrate %.4f, cost share %.3f\n",
				cy.Index, cy.Plan.Len(), cy.Report.Probed, cy.Snapshot.Hosts(),
				cy.Report.Hitrate(), cy.CostShare(targets))
			if cy.Note != "" {
				fmt.Fprintf(os.Stderr, "# %s\n", cy.Note)
			}
			if *footprint {
				fmt.Fprintf(os.Stderr, "# cycle %d footprint:\n", cy.Index)
				if err := tass.WriteFootprint(os.Stderr, cy.Plan, asTable.OriginsOf(cy.Plan), cy.Report); err != nil {
					return err
				}
			}
		}
		if err != nil {
			return err
		}
		w := bufio.NewWriter(os.Stdout)
		last := done[len(done)-1]
		for _, a := range last.Snapshot.Addrs {
			fmt.Fprintln(w, a)
		}
		return w.Flush()
	}

	if asTable != nil {
		pol.Origins = asTable.OriginsOf(targets)
	}
	scanner, err := tass.NewScanner(tass.ScanConfig{
		Targets:    targets,
		Prober:     prober,
		Rate:       *rate,
		Burst:      *burst,
		Workers:    *workers,
		Seed:       *seed,
		Shard:      *shard,
		Shards:     *shards,
		Exclude:    exclude,
		MaxProbes:  *max,
		Politeness: pol,
	})
	if err != nil {
		return err
	}
	if *checkpointPath != "" {
		cp, err := tass.ReadScanCheckpointFile(*checkpointPath)
		switch {
		case err == nil:
			if err := scanner.Resume(cp); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# resuming from %s\n", *checkpointPath)
		case !os.IsNotExist(err):
			// A torn or corrupt cursor is refused loudly: silently starting
			// over would re-probe everything the interrupted run covered.
			return fmt.Errorf("checkpoint %s: %w", *checkpointPath, err)
		}
	}
	if *reloadExclude > 0 {
		r := tass.NewExclusionReloader(scanner, *excludePath, *reloadExclude)
		r.OnReload = func(n int, err error) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "# exclusion reload failed: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "# exclusion list reloaded: %d prefixes\n", n)
		}
		rctx, rstop := context.WithCancel(ctx)
		defer rstop()
		go r.Run(rctx)
	}
	report, runErr := scanner.Run(ctx)
	if report != nil {
		fmt.Fprintf(os.Stderr, "# %d probed, %d excluded, %d errors, %d budget-denied, %d responsive, hitrate %.4f, %v elapsed\n",
			report.Probed, report.Excluded, report.Errors, report.BudgetDenied, len(report.Responsive),
			report.Hitrate(), report.Elapsed.Round(time.Millisecond))
		if *footprint {
			if err := tass.WriteFootprint(os.Stderr, targets, pol.Origins, report); err != nil {
				return err
			}
		}
		w := bufio.NewWriter(os.Stdout)
		for _, a := range report.Responsive {
			fmt.Fprintln(w, a)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if runErr == nil && *checkpointPath != "" {
		// A completed cycle invalidates the cursor: leaving the file
		// behind would make the next run of the same command silently
		// resume mid-cycle and skip the front of the target space.
		if err := os.Remove(*checkpointPath); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if runErr != nil && *checkpointPath != "" {
		if cp := scanner.Checkpoint(); cp != nil {
			// Atomic save: a crash while writing the cursor must leave the
			// previous checkpoint intact, never a torn file.
			if err := tass.WriteScanCheckpointFile(*checkpointPath, cp); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "# interrupted: cursor saved to %s; rerun the same command to resume\n", *checkpointPath)
		}
	}
	return runErr
}

// runCoordinate serves the distributed-campaign coordinator: durable
// state in -state, shard leases over HTTP. A restart over the same
// state file resumes every campaign, lease and cycle mid-flight.
func runCoordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "address to serve the coordinator API on")
	statePath := fs.String("state", "", "durable state file (required; a restart resumes from it)")
	campaign := fs.String("campaign", "", "campaign ID to register at startup (requires -targets)")
	targetsPath := fs.String("targets", "", "prefix list file: the campaign universe")
	cycles := fs.Int("cycles", 3, "scan-and-reselect cycles")
	shards := fs.Int("shards", 2, "shard leases per cycle (fleet parallelism)")
	phi := fs.Float64("phi", 0.95, "host coverage target φ for each re-selection")
	seed := fs.Int64("seed", 1, "cycle-0 permutation seed")
	workers := fs.Int("workers", 4, "scanner workers inside each leased shard (fixed per campaign)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "lease duration; a silent worker's shard is re-leased after this")
	chunk := fs.Uint64("chunk", 256, "probes per checkpoint chunk (bounds repeated work after a hard crash)")
	rate := fs.Float64("rate", 0, "per-worker probes/second cap (0 = unlimited)")
	excludePath := fs.String("exclude", "", "ZMap-style exclusion file; distributed to every worker in each lease")
	prefixRate := fs.Float64("prefix-rate", 0, "per-worker probes/second cap into any single target prefix (0 = off)")
	prefixBurst := fs.Int("prefix-burst", 0, "per-prefix bucket burst (default 8)")
	fs.Parse(args)
	if *statePath == "" {
		return fmt.Errorf("coordinate: -state is required")
	}
	c, err := tass.NewCoordinator(tass.NewCoordFileStore(*statePath), nil)
	if err != nil {
		return err
	}
	if *campaign != "" {
		if *targetsPath == "" {
			return fmt.Errorf("coordinate: -campaign requires -targets")
		}
		prefixes, err := loadPrefixFile(*targetsPath)
		if err != nil {
			return err
		}
		universe := make([]string, len(prefixes))
		for i, p := range prefixes {
			universe[i] = p.String()
		}
		var exclude []string
		if *excludePath != "" {
			ps, err := loadPrefixFile(*excludePath)
			if err != nil {
				return err
			}
			exclude = make([]string, len(ps))
			for i, p := range ps {
				exclude[i] = p.String()
			}
		}
		err = c.CreateCampaign(tass.CoordSpec{
			ID:          *campaign,
			Universe:    universe,
			Phi:         *phi,
			Cycles:      *cycles,
			Shards:      *shards,
			Workers:     *workers,
			Seed:        *seed,
			Rate:        *rate,
			Exclude:     exclude,
			PrefixRate:  *prefixRate,
			PrefixBurst: *prefixBurst,
			LeaseTTL:    *leaseTTL,
			ChunkProbes: *chunk,
		})
		switch {
		case errors.Is(err, tass.ErrCampaignExists):
			// Restart over existing state: the campaign is already
			// registered and possibly mid-flight; just keep serving it.
			fmt.Fprintf(os.Stderr, "# campaign %s already in state file; resuming it\n", *campaign)
		case err != nil:
			return err
		default:
			fmt.Fprintf(os.Stderr, "# campaign %s registered: %d prefixes, %d cycles, %d shards\n",
				*campaign, len(universe), *cycles, *shards)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	srv := &http.Server{Addr: *listen, Handler: tass.NewCoordHandler(c)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "# coordinator listening on %s (state: %s)\n", *listen, *statePath)
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		return srv.Shutdown(sctx)
	case err := <-errc:
		return err
	}
}

// runWork runs one campaign worker against a coordinator: acquire a
// shard lease, scan it in checkpointable chunks, upload the cursor at
// every chunk boundary, repeat until the campaign is done.
func runWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	coordURL := fs.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:7070 (required)")
	campaign := fs.String("campaign", "", "campaign ID to work on (required)")
	id := fs.String("id", "", "worker name in leases and logs (default worker-<pid>)")
	simPath := fs.String("sim", "", "simulate probes against this responsive-address file")
	port := fs.Int("port", 0, "TCP port to probe (real scanning)")
	loss := fs.Float64("loss", 0, "simulated probe loss rate")
	seed := fs.Int64("seed", 1, "simulation prober seed (cycle i uses seed+i)")
	excludePath := fs.String("exclude", "", "ZMap-style exclusion file applied locally, on top of the campaign's list")
	fs.Parse(args)
	if *coordURL == "" || *campaign == "" {
		return fmt.Errorf("work: -coordinator and -campaign are required")
	}
	if (*simPath == "") == (*port == 0) {
		return fmt.Errorf("work: exactly one of -sim or -port is required")
	}
	name := *id
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	w := &tass.CoordWorker{
		Client:   tass.NewCoordClient(*coordURL),
		ID:       name,
		Campaign: *campaign,
		OnEvent: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "# [%s] %s\n", name, fmt.Sprintf(format, args...))
		},
	}
	if *excludePath != "" {
		ps, err := loadPrefixFile(*excludePath)
		if err != nil {
			return err
		}
		w.Exclude = ps
	}
	if *simPath != "" {
		snap, err := loadAddrs(*simPath)
		if err != nil {
			return err
		}
		if _, err := tass.NewSimProber(snap.Addrs, *loss, *seed); err != nil {
			return err
		}
		w.ProberAt = func(cycle int) tass.Prober {
			p, _ := tass.NewSimProber(snap.Addrs, *loss, *seed+int64(cycle))
			return p
		}
	} else {
		w.Prober = &tass.TCPProber{Port: *port, Timeout: 2 * time.Second}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// loadPrefixFile parses one CIDR prefix (or bare address) per line, with
// '#' comments — the same grammar as ZMap exclusion files.
func loadPrefixFile(path string) ([]tass.Prefix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ps, err := tass.ParseExclusions(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ps, nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	tablePath := fs.String("pfx2as", "", "CAIDA pfx2as table (required)")
	fs.Parse(args)
	if *tablePath == "" {
		return fmt.Errorf("stats: -pfx2as is required")
	}
	table, err := loadTable(*tablePath)
	if err != nil {
		return err
	}
	s := table.Stats()
	fmt.Printf("prefixes:            %d\n", s.Prefixes)
	fmt.Printf("more-specifics:      %d (%.1f%%)\n", s.MoreSpecifics, 100*s.MoreShare)
	fmt.Printf("announced space:     %d addresses\n", s.Space)
	fmt.Printf("more-specific space: %d addresses (%.1f%%)\n", s.MoreSpace, 100*s.MoreSpaceShare)
	fmt.Printf("l-prefix universe:   %d prefixes\n", table.LessSpecifics().Len())
	fmt.Printf("m-prefix universe:   %d pieces\n", table.Deaggregated().Len())
	return nil
}
