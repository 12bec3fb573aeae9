// Package tass implements the Topology Aware Scanning Strategy (TASS) of
// Klick, Lau, Wählisch and Roth ("Towards Better Internet Citizenship:
// Reducing the Footprint of Internet-wide Scans by Topology Aware Prefix
// Selection", ACM IMC 2016), together with everything needed to use and
// evaluate it: announced-table handling (pfx2as and MRT inputs), prefix
// deaggregation, baseline strategies, a ZMap-style scanner engine, and a
// calibrated Internet simulator for offline evaluation.
//
// # The strategy in one paragraph
//
// Internet-wide scans mostly probe silence: hitrates of full IPv4 sweeps
// are typically below two percent. TASS amortizes one full seed scan over
// months of cheap periodic scans: it counts the seed's responsive
// addresses per announced prefix, ranks prefixes by host density, and
// selects the densest prefixes until a chosen fraction φ of all observed
// hosts is covered. Because hosts churn mostly *within* announced
// prefixes, the selection stays accurate for months (≈0.3 %/month decay)
// while scanning a fraction of the address space.
//
// # Quick start
//
//	table, _ := tass.ReadPfx2as(f)             // CAIDA prefix→AS table
//	universe := table.Deaggregated()           // m-prefix partition (fig. 2)
//	seed := tass.NewSnapshot("ftp", 0, addrs)  // month-0 full scan results
//	sel, _ := tass.Select(seed, universe, tass.Options{Phi: 0.95})
//	for _, p := range sel.Prefixes() {         // scan these each cycle
//	    fmt.Println(p)
//	}
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// reproduction map of every table and figure in the paper.
package tass

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/cluster"
	"github.com/tass-scan/tass/internal/coord"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/fsck"
	"github.com/tass-scan/tass/internal/mrt"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/pfx2as"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
	"github.com/tass-scan/tass/internal/strategy"
	"github.com/tass-scan/tass/internal/topo"
	"github.com/tass-scan/tass/internal/trie"
)

// Core address and prefix types (see netaddr for full method sets).
type (
	// Addr is an IPv4 address as a 32-bit integer value.
	Addr = netaddr.Addr
	// Prefix is a canonical IPv4 CIDR prefix.
	Prefix = netaddr.Prefix
	// AddrRange is an inclusive IPv4 address range.
	AddrRange = netaddr.AddrRange
)

// Announced-table types.
type (
	// Table is an announced-prefix table (a RIB reduced to prefixes).
	Table = rib.Table
	// TableEntry is one announced prefix with its origin.
	TableEntry = rib.Entry
	// Partition is a sorted disjoint prefix set: a scanning universe.
	Partition = rib.Partition
	// Origin is a pfx2as origin-AS annotation.
	Origin = pfx2as.Origin
)

// Scan-data types.
type (
	// Snapshot is one full-scan observation (protocol, month, sorted
	// responsive addresses).
	Snapshot = census.Snapshot
	// Series is a monthly snapshot sequence for one protocol.
	Series = census.Series
	// DiffResult decomposes the churn between two snapshots.
	DiffResult = census.DiffResult
	// Delta is the churn between two snapshots as sorted born/died
	// address runs: the unit of the incremental selection pipeline.
	Delta = census.Delta
	// AddrSet is the immutable block-indexed sorted address set behind
	// Snapshot.Set(): sub-linear range counts, galloping intersection.
	AddrSet = addrset.Set
	// CountCache memoizes per-(snapshot, partition) host counts by
	// identity; share one across repeated selections of the same seeds.
	CountCache = census.CountCache
)

// NewCountCache returns an empty count cache (see SelectCached),
// LRU-bounded at a generous default entry cap.
func NewCountCache() *CountCache { return census.NewCountCache() }

// NewAddrSet builds a block-indexed set from ascending addresses.
// blockSize 0 uses the package default.
func NewAddrSet(addrs []Addr, blockSize int) *AddrSet {
	return addrset.FromSorted(addrs, blockSize)
}

// DiffSnapshots compares two scans of one protocol: how many addresses
// persisted, disappeared and appeared (the §3.3 host-stability view).
// Either snapshot may be lazy.
func DiffSnapshots(earlier, later *Snapshot) DiffResult {
	return earlier.Diff(later).Result(earlier.Hosts())
}

// DeltaOf returns the full churn between two snapshots as sorted
// born/died runs; ApplyDelta(earlier, DeltaOf(earlier, later)) equals
// later exactly. (Equivalent to earlier.Diff(later).)
func DeltaOf(earlier, later *Snapshot) *Delta { return earlier.Diff(later) }

// ApplyDelta reconstructs a later snapshot from an earlier one plus
// the delta between them by one merge pass. The result is a new eager
// snapshot; the earlier one is left unchanged, and a lazy earlier
// snapshot may be closed afterwards. To carry a ranking across months,
// apply the delta to an IncrementalSelector instead, which repairs only
// the prefixes it touches.
func ApplyDelta(earlier *Snapshot, d *Delta) (*Snapshot, error) {
	return census.ApplyDelta(earlier, d)
}

// ReadDelta parses a binary delta written with Delta.WriteTo.
func ReadDelta(r io.Reader) (*Delta, error) { return census.ReadDelta(r) }

// Selection types (the paper's algorithm).
type (
	// Options parameterizes Select: the φ target plus optional density
	// and size cuts.
	Options = core.Options
	// Selection is a TASS scan plan.
	Selection = core.Selection
	// PrefixStat is one ranked responsive prefix.
	PrefixStat = core.PrefixStat
	// CurvePoint is one point of the ranked density/coverage curves.
	CurvePoint = core.CurvePoint
	// IncrementalSelector maintains a TASS ranking across deltas:
	// seed it once, Apply a Delta per month or scan cycle, and Select
	// byte-identically to a full recompute at churn-proportional cost.
	IncrementalSelector = core.Ranker
)

// NewIncrementalSelector counts seed over universe once (sharded over
// workers goroutines, memoized in cache — both as in SelectCached) and
// returns the selector that keeps that ranking current under deltas.
// Like SelectCached, it refuses a lazy seed whose storage faulted
// during the count unless the snapshot opted into degraded reads.
func NewIncrementalSelector(seed *Snapshot, universe Partition, workers int, cache *CountCache) (*IncrementalSelector, error) {
	return core.NewRanker(seed, universe, workers, cache)
}

// Strategy types for head-to-head evaluation.
type (
	// Strategy builds a scan plan from a seed snapshot.
	Strategy = strategy.Strategy
	// Plan is a periodic scan with fixed cost.
	Plan = strategy.Plan
	// Evaluation is a hitrate-over-time record.
	Evaluation = strategy.Evaluation
	// FullScan probes the whole announced space every cycle.
	FullScan = strategy.Full
	// HitlistStrategy re-probes exactly the seed's responsive addresses.
	HitlistStrategy = strategy.Hitlist
	// TASSStrategy is density-ranked prefix selection.
	TASSStrategy = strategy.TASS
	// SampleStrategy is a Heidemann-style /24-block sample.
	SampleStrategy = strategy.RandomSample
)

// Simulation types (the offline evaluation substrate).
type (
	// Universe is a synthetic announced Internet with host populations.
	Universe = topo.Universe
	// UniverseConfig parameterizes universe generation.
	UniverseConfig = topo.Config
	// ProtocolProfile holds placement and churn parameters per protocol.
	ProtocolProfile = topo.ProtocolProfile
	// ChurnSimulator evolves universe populations month by month.
	ChurnSimulator = churn.Simulator
)

// Scanner-engine types.
type (
	// Scanner executes scan cycles over a target partition.
	Scanner = scan.Scanner
	// ScanConfig parameterizes a Scanner.
	ScanConfig = scan.Config
	// ScanReport summarizes a completed scan cycle.
	ScanReport = scan.Report
	// ScanResult is one probe outcome.
	ScanResult = scan.Result
	// Prober performs probes for the scanner.
	Prober = scan.Prober
	// SimProber probes an in-memory responsive set.
	SimProber = scan.SimProber
	// TCPProber performs real TCP connect probes with banner grabbing.
	TCPProber = scan.TCPProber
	// ScanCampaign runs the live feedback loop: scan, convert the results
	// into a census snapshot, re-select, and scan the tightened plan.
	ScanCampaign = scan.Campaign
	// ScanCycle is one completed scan-and-reselect campaign iteration.
	ScanCycle = scan.Cycle
	// ScanCheckpoint is the serialized cursor state of an interrupted
	// scan cycle (see Scanner.Checkpoint / Scanner.Resume).
	ScanCheckpoint = scan.Checkpoint
	// ScanShard is one worker's (or machine's) disjoint slice of a scan
	// permutation cycle.
	ScanShard = scan.Shard
	// ScanPoliteness configures the good-citizen layer: per-origin-AS and
	// per-prefix pacing under the global rate, adaptive backoff, per-AS
	// probe budgets and footprint telemetry.
	ScanPoliteness = scan.Politeness
	// ScanBackoff parameterizes adaptive per-AS backoff (error-burst
	// detection halves an AS's rate; successes restore it gradually).
	ScanBackoff = scan.BackoffConfig
	// ASStat is the per-origin-AS footprint of one scan cycle.
	ASStat = scan.ASStat
	// PolicyLimiter paces probes through global, per-AS and per-prefix
	// token buckets (see Scanner.Policy for the mid-cycle retune hook).
	PolicyLimiter = scan.PolicyLimiter
	// ExclusionReloader keeps a running scanner's exclusion list current
	// with an on-disk file by polling, ZMap-blocklist style.
	ExclusionReloader = scan.ExclusionReloader
)

// NewScanner validates cfg and builds a scanner.
func NewScanner(cfg ScanConfig) (*Scanner, error) { return scan.New(cfg) }

// NewSimProber builds a simulation prober over a responsive address set.
func NewSimProber(responsive []Addr, lossRate float64, seed int64) (*SimProber, error) {
	return scan.NewSimProber(responsive, lossRate, seed)
}

// ParseExclusions reads a ZMap-style exclusion list (one CIDR or address
// per line, '#' comments).
func ParseExclusions(r io.Reader) ([]Prefix, error) { return scan.ParseExclusions(r) }

// NewExclusionReloader builds a polling reloader feeding s from the
// exclusion file at path every interval (0 means the 5s default); run
// its Run method alongside Scanner.Run, or call Poll on a signal.
func NewExclusionReloader(s *Scanner, path string, interval time.Duration) *ExclusionReloader {
	return scan.NewExclusionReloader(s, path, interval)
}

// WriteFootprint renders a completed scan's per-origin-AS footprint
// table: plan size, probes, and politeness events per origin network.
// origins must be the mapping the scan ran with (Table.OriginsOf).
func WriteFootprint(w io.Writer, targets Partition, origins []uint32, rep *ScanReport) error {
	return scan.WriteFootprint(w, targets, origins, rep)
}

// ReadScanCheckpoint parses a checkpoint written by WriteScanCheckpoint.
func ReadScanCheckpoint(r io.Reader) (*ScanCheckpoint, error) { return scan.ReadCheckpoint(r) }

// WriteScanCheckpoint serializes an interrupted cycle's cursor state.
func WriteScanCheckpoint(w io.Writer, cp *ScanCheckpoint) error { return scan.WriteCheckpoint(w, cp) }

// ReadScanCheckpointFile loads a checkpoint file, verifying its format
// version and checksum: a torn or corrupt cursor is refused, never
// half-resumed.
func ReadScanCheckpointFile(path string) (*ScanCheckpoint, error) {
	return scan.ReadCheckpointFile(path)
}

// WriteScanCheckpointFile atomically persists a checkpoint (write to a
// temp file, fsync, rename): a crash mid-save leaves the previous
// cursor intact instead of a torn file.
func WriteScanCheckpointFile(path string, cp *ScanCheckpoint) error {
	return scan.WriteCheckpointFile(path, cp)
}

// Distributed-campaign types: a fault-tolerant coordinator owns the
// campaign state machine and hands time-bounded shard leases to a fleet
// of workers over HTTP+JSON (see internal/coord and DESIGN.md §13).
type (
	// Coordinator is the campaign state machine: it leases shards,
	// collects uploads, reseeds between cycles, and persists every
	// transition to its store.
	Coordinator = coord.Coordinator
	// CoordSpec configures one distributed campaign.
	CoordSpec = coord.CampaignSpec
	// CoordLease is one granted shard of one scan cycle.
	CoordLease = coord.Lease
	// CoordStatus is a campaign's externally visible state.
	CoordStatus = coord.Status
	// CoordStore is the coordinator's durable-state backend.
	CoordStore = coord.Store
	// CoordClient is the worker-side HTTP client with retries.
	CoordClient = coord.Client
	// CoordWorker runs leased shards against a coordinator until the
	// campaign completes.
	CoordWorker = coord.Worker
)

// Coordinator sentinel errors (see the coord package for semantics).
var (
	// ErrLeaseLost means a worker's lease expired or was superseded: its
	// buffered results must be discarded, not uploaded.
	ErrLeaseLost = coord.ErrLeaseLost
	// ErrUnknownCampaign means the campaign ID is not registered.
	ErrUnknownCampaign = coord.ErrUnknownCampaign
	// ErrCampaignExists rejects registering a duplicate campaign ID.
	ErrCampaignExists = coord.ErrCampaignExists
)

// NewCoordinator builds a campaign coordinator over store, reloading
// any state a previous process saved there (a torn or corrupt store is
// refused). now is the lease clock; nil means time.Now.
func NewCoordinator(store CoordStore, now func() time.Time) (*Coordinator, error) {
	return coord.NewCoordinator(store, now)
}

// NewCoordHandler exposes a coordinator over HTTP+JSON.
func NewCoordHandler(c *Coordinator) http.Handler { return coord.NewHandler(c) }

// NewCoordFileStore returns a file-backed coordinator store with
// atomic, checksummed saves.
func NewCoordFileStore(path string) CoordStore { return coord.NewFileStore(path) }

// NewCoordMemStore returns an in-memory coordinator store (tests,
// single-process demos).
func NewCoordMemStore() CoordStore { return coord.NewMemStore() }

// NewCoordClient returns a coordinator client with the default retry
// policy (jittered exponential backoff on transport failures).
func NewCoordClient(base string) *CoordClient { return coord.NewClient(base) }

// ExtractMRT reduces an MRT TABLE_DUMP_V2 RIB stream to an announced
// table with origin ASes (the CAIDA pfx2as reduction). skipped counts
// unparseable RIB entries.
func ExtractMRT(r io.Reader) (t *Table, skipped int, err error) {
	recs, skipped, err := mrt.ExtractPfx2as(r)
	if err != nil {
		return nil, skipped, err
	}
	return rib.FromRecords(recs), skipped, nil
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return netaddr.ParseAddr(s) }

// ParsePrefix parses CIDR notation with canonical (masked) address bits.
func ParsePrefix(s string) (Prefix, error) { return netaddr.ParsePrefix(s) }

// ReadPfx2as parses a CAIDA Routeviews prefix-to-AS table into a Table.
func ReadPfx2as(r io.Reader) (*Table, error) {
	recs, err := pfx2as.ParseAll(r)
	if err != nil {
		return nil, err
	}
	return rib.FromRecords(recs), nil
}

// WritePfx2as serializes a Table in CAIDA pfx2as notation.
func WritePfx2as(w io.Writer, t *Table) error {
	return pfx2as.Write(w, t.Records())
}

// NewTable builds an announced table from raw prefixes (origins unknown).
func NewTable(prefixes []Prefix) *Table {
	entries := make([]rib.Entry, len(prefixes))
	for i, p := range prefixes {
		entries[i] = rib.Entry{Prefix: p}
	}
	return rib.New(entries)
}

// Deaggregate decomposes announced prefixes into the paper's minimal
// disjoint m-prefix partition (Figure 2).
func Deaggregate(prefixes []Prefix) []Prefix { return trie.Deaggregate(prefixes) }

// LessSpecificOnly keeps only the maximal (l-) prefixes of a set.
func LessSpecificOnly(prefixes []Prefix) []Prefix { return trie.LessSpecificOnly(prefixes) }

// NewPartition validates and builds a scanning universe from disjoint
// prefixes.
func NewPartition(prefixes []Prefix) (Partition, error) { return rib.NewPartition(prefixes) }

// NewSnapshot builds a scan snapshot from (unsorted, possibly duplicate)
// responsive addresses.
func NewSnapshot(protocol string, month int, addrs []Addr) *Snapshot {
	return census.NewSnapshot(protocol, month, addrs)
}

// ReadSnapshot parses a binary snapshot written with Snapshot.WriteTo.
func ReadSnapshot(r io.Reader) (*Snapshot, error) { return census.ReadSnapshot(r) }

// OpenSnapshotFile opens a TASSNAP3 census snapshot file (see
// WriteSnapshotFile) in O(index), yielding a lazy snapshot whose blocks
// decode on demand from the mapped file, so a full 2^32-scale census
// opens in milliseconds and counting passes hold only a bounded working
// set resident. Close the snapshot when done; Materialize detaches a
// fully in-memory copy. Older formats are rejected with an error naming
// their upgrade: ConvertSnapshotFile (`tass convert -in`) for a v1
// stream (Snapshot.WriteTo bytes), RepairSnapshotFile (`tass fsck
// -repair`) for a TASSNAP2 file.
func OpenSnapshotFile(path string) (*Snapshot, error) { return census.OpenSnapshotFile(path) }

// WriteSnapshotFile writes s in the indexed TASSNAP3 format that
// OpenSnapshotFile reads lazily. The write is atomic (temp file +
// rename) and streams block by block, so writing never needs the
// decoded address slice in memory.
func WriteSnapshotFile(path string, s *Snapshot) error { return census.WriteSnapshotFile(path, s) }

// VerifySnapshotFile deeply checks a TASSNAP3 snapshot file: index,
// payload and block checksums plus a full decode of every block. Run it once on
// untrusted files before lazy use — OpenSnapshotFile verifies only the
// index, and trusts the payload bytes it faults in afterwards.
func VerifySnapshotFile(path string) error { return census.VerifySnapshotFile(path) }

// Storage-integrity surface: typed block faults, the degraded-read
// policy knob, and the scrub/repair entry points behind `tass fsck`.
type (
	// BlockError is the typed fault of one lazy block read: the damaged
	// block's index, its byte extent in the payload, and the cause.
	BlockError = addrset.BlockError
	// FaultPolicy selects what a lazy snapshot does when a block read
	// fails: FaultFailFast surfaces the fault to counting consumers,
	// FaultDegrade skips the block, records it, and keeps counting.
	FaultPolicy = addrset.FaultPolicy
	// SnapshotScrub is the block-by-block damage report of
	// ScrubSnapshotFile.
	SnapshotScrub = census.SnapshotScrub
	// SnapshotRepair reports what RepairSnapshotFile recovered, lost,
	// and quarantined.
	SnapshotRepair = census.SnapshotRepair
	// BlockDamage is one undecodable block in a SnapshotScrub.
	BlockDamage = census.BlockDamage
	// FsckResult is the outcome of one FsckCheck/FsckRepair over one
	// file of any tass artifact kind.
	FsckResult = fsck.Result
)

// Fault policies for lazy snapshots (Snapshot.SetFaultPolicy).
const (
	// FaultFailFast (the default) refuses results computed over damaged
	// blocks: selection and ranking return the typed *BlockError.
	FaultFailFast = addrset.FailFast
	// FaultDegrade keeps counting around damaged blocks: counts may
	// undershoot by the damaged blocks' populations, the faults are
	// recorded (Snapshot.StorageFaults), and the process survives.
	FaultDegrade = addrset.Degrade
)

// ScrubSnapshotFile verifies a snapshot file block by block, reporting
// every finding (index damage, payload CRC, per-block damage) instead
// of stopping at the first. It is the read-only half of `tass fsck`.
func ScrubSnapshotFile(path string) (*SnapshotScrub, error) { return census.ScrubSnapshotFile(path) }

// RepairSnapshotFile re-derives every intact block of a damaged (or
// TASSNAP2) snapshot file into a fresh verified TASSNAP3 file,
// atomically replacing path; damaged blocks' raw bytes are quarantined
// beside it first.
func RepairSnapshotFile(path string) (*SnapshotRepair, error) {
	return census.RepairSnapshotFile(path)
}

// FsckCheck scrubs any tass artifact (snapshot, scan checkpoint,
// coordinator state) read-only, sniffing the kind from the file.
func FsckCheck(path string) (*FsckResult, error) { return fsck.Check(path) }

// FsckRepair scrubs and repairs any tass artifact: snapshots are
// re-derived block by block (upgrading TASSNAP2 to TASSNAP3), valid
// checksum-less checkpoints upgraded to the envelope, and unrepairable
// files moved aside whole to a .quarantine sibling. A v1 stream is
// reported, never rewritten: ConvertSnapshotFile upgrades it.
func FsckRepair(path string) (*FsckResult, error) { return fsck.Repair(path) }

// ConvertSnapshotFile converts a v1 snapshot (Snapshot.WriteTo bytes,
// e.g. a census archive) into an indexed TASSNAP3 file. A v1 stream has
// no block index, so the conversion decodes it whole before writing;
// reads of the converted file are lazy. It is the bulk-import path
// behind `tass convert`.
func ConvertSnapshotFile(r io.Reader, path string) error {
	return census.ConvertSnapshotFile[Addr](r, path)
}

// ReadSeries parses back-to-back snapshots of one protocol.
func ReadSeries(r io.Reader) (*Series, error) { return census.ReadSeries(r) }

// Select runs TASS prefix selection (the paper's steps 1–4) on a seed
// snapshot over a scanning universe.
func Select(seed *Snapshot, universe Partition, opts Options) (*Selection, error) {
	return core.SelectCached(seed, universe, opts, 1, nil)
}

// SelectCached is Select with the counting walk sharded over workers
// goroutines (0 means GOMAXPROCS) and the per-prefix counts memoized in
// cache (nil computes every call). Results are identical to Select.
func SelectCached(seed *Snapshot, universe Partition, opts Options, workers int, cache *CountCache) (*Selection, error) {
	return core.SelectCached(seed, universe, opts, workers, cache)
}

// Rank returns every responsive prefix of the seed in density order.
func Rank(seed *Snapshot, universe Partition) []PrefixStat {
	return core.RankCached(seed, universe, 1, nil)
}

// Evaluate seeds a strategy with month 0 of the series and measures its
// hitrate on every month. fullSpace normalizes the cost share (pass the
// announced address count).
func Evaluate(s Strategy, series *Series, fullSpace uint64) (Evaluation, error) {
	return strategy.Evaluate(s, series, fullSpace)
}

// GenerateUniverse builds a deterministic synthetic Internet for offline
// evaluation. Use DefaultUniverseConfig or SmallUniverseConfig as a base.
func GenerateUniverse(cfg UniverseConfig) (*Universe, error) { return topo.Generate(cfg) }

// DefaultUniverseConfig is the paper-scale simulation setup (≈3.7 B
// allocated addresses, ≈7 M hosts across FTP/HTTP/HTTPS/CWMP).
func DefaultUniverseConfig(seed int64) UniverseConfig { return topo.DefaultConfig(seed) }

// SmallUniverseConfig is a reduced setup for demos and tests.
func SmallUniverseConfig(seed int64) UniverseConfig { return topo.SmallConfig(seed) }

// ScaledUniverseConfig shrinks the paper-scale setup to the given scale
// in (0,1]: the allocated space becomes a proportional number of /8
// blocks and the host populations scale linearly. Scale 1.0 returns the
// full paper-scale configuration.
func ScaledUniverseConfig(seed int64, scale float64) UniverseConfig {
	if scale >= 1.0 {
		return topo.DefaultConfig(seed)
	}
	cfg := topo.DefaultConfig(seed)
	blocks := int(scale * 220)
	if blocks < 1 {
		blocks = 1
	}
	var alloc []Prefix
	for b := 0; b < blocks; b++ {
		alloc = append(alloc, netaddr.MustPrefixFrom(netaddr.AddrFrom4(byte(20+b), 0, 0, 0), 8))
	}
	cfg.Allocated = alloc
	cfg.Protocols = topo.DefaultProfiles(scale)
	// Suppress whole-/8 announcements that would dominate a small world.
	for l := 0; l <= 12; l++ {
		cfg.AnnounceProb[l] = 0
		cfg.HoleProb[l] = 0
	}
	return cfg
}

// DefaultProtocolProfiles returns the four calibrated paper protocols
// (FTP, HTTP, HTTPS, CWMP) with populations scaled by scale.
func DefaultProtocolProfiles(scale float64) []ProtocolProfile {
	return topo.DefaultProfiles(scale)
}

// MustParsePrefix is ParsePrefix for constants; it panics on error.
func MustParsePrefix(s string) Prefix { return netaddr.MustParsePrefix(s) }

// MustParseAddr is ParseAddr for constants; it panics on error.
func MustParseAddr(s string) Addr { return netaddr.MustParseAddr(s) }

// SimulateMonths evolves a universe and returns months+1 monthly
// snapshot series per protocol (month 0 is the unevolved seed state).
func SimulateMonths(u *Universe, seed int64, months int) map[string]*Series {
	return churn.Run(u, seed, months)
}

// SimConfig parameterizes SimulateSeries beyond the universe and seed:
// the worker budget. Every (protocol, stripe, month) triple evolves on
// its own derived RNG substream, so the series are byte-identical at
// any worker count.
type SimConfig = churn.RunConfig

// SimulateSeries is SimulateMonths under an explicit SimConfig.
func SimulateSeries(u *Universe, seed int64, months int, cfg SimConfig) map[string]*Series {
	return churn.RunSim(u, seed, months, cfg)
}

// SimulateSeriesDeltas simulates on the incremental pipeline and also
// returns the native per-month deltas: deltas[proto][m] carries month
// m -> m+1, and applying it to the month-m snapshot reproduces month
// m+1 exactly.
func SimulateSeriesDeltas(u *Universe, seed int64, months int, cfg SimConfig) (map[string]*Series, map[string][]*Delta) {
	return churn.RunSimDeltas(u, seed, months, cfg)
}

// NewChurnSimulator returns a month-by-month churn simulator for u
// seeded with seed; set its Workers field to fan each Step out over
// the population stripes (the evolution is byte-identical at any
// worker count).
func NewChurnSimulator(u *Universe, seed int64) *ChurnSimulator {
	return churn.New(u, seed)
}

// SelectMany evaluates a grid of selection options against one seed,
// ranking once and selecting each entry concurrently (0 workers means
// GOMAXPROCS). Entry i equals Select(seed, universe, grid[i]) exactly.
func SelectMany(seed *Snapshot, universe Partition, grid []Options, workers int) ([]*Selection, error) {
	return core.SelectManyCached(seed, universe, grid, workers, nil)
}

// Extension types: the paper's §5 future-work directions.
type (
	// Campaign is the full periodic loop: select, scan, reseed every Δt.
	Campaign = strategy.Campaign
	// CampaignEval is a simulated campaign's cost/accuracy record.
	CampaignEval = strategy.CampaignEval
	// ClusterOptions bounds scan-driven prefix refinement.
	ClusterOptions = cluster.Options

	// Addr6 is a 128-bit IPv6 address.
	Addr6 = netaddr.Addr6
	// Prefix6 is an IPv6 CIDR prefix.
	Prefix6 = netaddr.Prefix6
	// Universe6 is a disjoint IPv6 prefix set.
	Universe6 = rib.PartOf[Addr6]
	// Selection6 is an IPv6 TASS scan plan. Space saturates for plans
	// wider than 2^64 addresses; SpaceBits is the cost figure there.
	Selection6 = core.SelectionOf[Addr6]
	// PrefixStat6 is one ranked responsive IPv6 prefix. Its Density is
	// vanishingly small; only the ranking matters.
	PrefixStat6 = core.StatOf[Addr6]
)

// EvaluateCampaign simulates a periodic TASS campaign (selection plus
// reseeding every Δt months) against a ground-truth series.
func EvaluateCampaign(c Campaign, series *Series, fullSpace uint64) (CampaignEval, error) {
	return strategy.EvaluateCampaign(c, series, fullSpace)
}

// RefinePartition applies Cai-Heidemann-style utilization clustering to
// a partition: prefixes are recursively bisected around the host
// concentrations observed in the seed scan (paper §5 future work).
func RefinePartition(seed *Snapshot, part Partition, opts ClusterOptions) (Partition, error) {
	return cluster.Refine(seed, part, opts)
}

// ParseAddr6 parses a textual IPv6 address.
func ParseAddr6(s string) (Addr6, error) { return netaddr.ParseAddr6(s) }

// ParsePrefix6 parses IPv6 CIDR notation with zero host bits.
func ParsePrefix6(s string) (Prefix6, error) { return netaddr.ParsePrefix6(s) }

// NewUniverse6 validates and builds an IPv6 scanning universe.
// The input is copied and sorted.
func NewUniverse6(ps []Prefix6) (Universe6, error) {
	u, err := rib.NewPartition(ps)
	if err != nil {
		return Universe6{}, fmt.Errorf("tass: %w", err)
	}
	return u, nil
}

// NewUniverse6FromAnnounced builds the universe from a raw announced
// IPv6 table, dropping covered more-specifics — the v6 analogue of the
// IPv4 l-prefix view.
func NewUniverse6FromAnnounced(ps []Prefix6) (Universe6, error) {
	return NewUniverse6(trie.LessSpecificOnly(ps))
}

// Select6 runs the TASS selection blueprint on IPv6 seed observations
// (passive measurements or hitlist probes — there is no full IPv6 scan).
// The seeds are treated as an address set: repeated observations count
// once, exactly like the IPv4 census path.
func Select6(seeds []Addr6, u Universe6, phi float64) (*Selection6, error) {
	sel, err := core.SelectCached(seedSnapshot6(seeds), u, core.Options{Phi: phi}, 1, nil)
	if err != nil {
		return nil, fmt.Errorf("tass: %w", err)
	}
	return sel, nil
}

// Rank6 ranks responsive IPv6 prefixes by density.
func Rank6(seeds []Addr6, u Universe6) []PrefixStat6 {
	return core.RankCached(seedSnapshot6(seeds), u, 1, nil)
}

// seedSnapshot6 wraps IPv6 seed observations as a census snapshot
// (copied, sorted, de-duplicated) for the generic engine.
func seedSnapshot6(seeds []Addr6) *census.SnapshotOf[Addr6] {
	return census.NewSnapshotOf("seed6", 0, seeds)
}

// Version is the library version reported by the command-line tools.
const Version = "1.0.0"

// Describe renders a short human-readable summary of a selection.
func Describe(sel *Selection) string {
	return fmt.Sprintf("%d prefixes, %.1f%% host coverage, %d addresses (%.1f%% of universe), %.0f probes/host",
		sel.K, 100*sel.HostCoverage, sel.Space, 100*sel.SpaceShare, sel.Efficiency())
}

// Describe6 renders a short human-readable summary of an IPv6
// selection. Address counts are given as exponents: v6 plans routinely
// exceed 2^64 addresses, where Selection6.Space saturates.
func Describe6(sel *Selection6) string {
	return fmt.Sprintf("%d prefixes, %.1f%% host coverage, 2^%.1f addresses, %d seed hosts",
		sel.K, 100*sel.HostCoverage, sel.SpaceBits, sel.SeedHosts)
}
