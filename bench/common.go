package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/topo"
)

// worldSeed generates the synthetic Internet every run measures: its
// announced topology and initial host placement and, in the scan world,
// its monthly churn too. The run's seed drives the rest: the scanner's
// randomness (probe loss, probe order) and the churn of the reseed and
// paper worlds. Plan size, and so scan time, follows the host placement
// and churn: worlds from different seeds differ in iteration time by
// 15–20 %, and scan-world churn from different seeds by ≈8 % (quartile
// spread of probes per iteration over ten seeds), which would swamp
// every bound the benchmark sets. The reseed and paper worlds' work does
// not follow their churn.
const worldSeed = 1

// sizes scales the workloads' inputs. The benchmark runs fullSizes; the
// smoke tests run tinySizes, which keep every code path but finish in
// milliseconds.
type sizes struct {
	// scanBlock is the allocated space of the campaign and fleet world,
	// and scanScale the profile scale of its one protocol.
	scanBlock netaddr.Prefix
	scanScale float64
	// reseedBlocks, when set, replace the paper-scale allocated space of
	// the reseed world, and reseedScale scales its protocol.
	reseedBlocks []netaddr.Prefix
	reseedScale  float64
	// paperScale is the experiment world's scale.
	paperScale float64
}

var fullSizes = sizes{
	// One campaign iteration probes ≈0.5 M addresses of the /9.
	scanBlock: netaddr.MustParsePrefix("20.0.0.0/9"),
	// The host density of the root package's low-churn benchmark world
	// (scale 0.05 over eleven /8s), on half a /8.
	scanScale:   0.05 / 22,
	reseedScale: 1,
	paperScale:  0.01,
}

var tinySizes = sizes{
	scanBlock:    netaddr.MustParsePrefix("20.0.0.0/17"),
	scanScale:    0.0001,
	reseedBlocks: []netaddr.Prefix{netaddr.MustParsePrefix("20.0.0.0/14")},
	reseedScale:  0.01,
	paperScale:   0.002,
}

// topoConfig is the paper-scale generator configuration of the world
// seed with the given protocols, restricted to blocks when there are
// any (nil keeps the whole allocatable space).
func topoConfig(blocks []netaddr.Prefix, protocols ...topo.ProtocolProfile) topo.Config {
	cfg := topo.DefaultConfig(worldSeed)
	if blocks != nil {
		// SmallConfig suppresses the whole-/8 announcements that would
		// swallow a world of a few blocks.
		cfg = topo.SmallConfig(worldSeed)
		cfg.Allocated = blocks
	}
	cfg.Protocols = protocols
	cfg.Workers = benchWorkers
	return cfg
}

// newDigest starts an output hash.
func newDigest() hash.Hash64 { return fnv.New64a() }

func putU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// putSelection hashes everything a selection decides: its size, the seed
// it counted, its footprint and the selected prefixes in rank order.
func putSelection(h hash.Hash64, sel *core.Selection) {
	putU64(h, uint64(sel.K), uint64(sel.SeedHosts), sel.Space, math.Float64bits(sel.HostCoverage))
	for _, p := range sel.Prefixes() {
		putU64(h, uint64(p.Addr()), uint64(p.Bits()))
	}
}

func putAddrs(h hash.Hash64, addrs []netaddr.Addr) {
	putU64(h, uint64(len(addrs)))
	for _, a := range addrs {
		putU64(h, uint64(a))
	}
}
