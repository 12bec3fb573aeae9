package tass_test

// Benchmarks for the lazy census stack: cold-open latency of the
// indexed snapshot format vs the eager v1 decode, counting passes over
// a lazily-backed snapshot (first-touch decode cost and resident-set
// size), and the batch varint micro-kernel under the block decoder.
//
// The census size follows the bench tier: the default is a small
// fixture; `scripts/bench.sh -universe huge` sets TASS_BENCH_UNIVERSE=huge
// for a census approaching the paper's full-universe scale
// (TASS_HUGE_HOSTS overrides the host count).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"github.com/tass-scan/tass"
	"github.com/tass-scan/tass/internal/addrset"
)

// benchCensusHosts returns the synthetic census size for the active
// bench tier.
func benchCensusHosts() int {
	switch os.Getenv("TASS_BENCH_UNIVERSE") {
	case "huge":
		if s := os.Getenv("TASS_HUGE_HOSTS"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				return n
			}
		}
		return 50_000_000
	default:
		return 2_000_000
	}
}

var (
	benchCensusOnce sync.Once
	benchCensusErr  error
	benchV1Path     string // v1 stream (Snapshot.WriteTo bytes)
	benchSnapPath   string // indexed TASSNAP3 file
	benchCensusLast tass.Addr
)

// benchCensusFiles writes the tier's synthetic census once per process,
// in both formats, and returns the two paths plus the highest address
// (for building counting partitions over the populated span).
func benchCensusFiles(b *testing.B) (v1, indexed string, last tass.Addr) {
	b.Helper()
	benchCensusOnce.Do(func() {
		hosts := benchCensusHosts()
		rng := rand.New(rand.NewSource(42))
		addrs := make([]tass.Addr, 0, hosts)
		v := uint32(0)
		for len(addrs) < hosts {
			// Census-shaped gaps: mostly 1–2 byte deltas, occasional
			// jumps over dark space.
			if rng.Intn(1000) == 0 {
				v += uint32(rng.Intn(1 << 18))
			}
			v += 1 + uint32(rng.Intn(120))
			addrs = append(addrs, tass.Addr(v))
		}
		benchCensusLast = addrs[len(addrs)-1]
		snap := tass.NewSnapshot("bench", 0, addrs)

		dir, err := os.MkdirTemp("", "tassbench")
		if err != nil {
			benchCensusErr = err
			return
		}
		benchV1Path = filepath.Join(dir, "census.v1")
		f, err := os.Create(benchV1Path)
		if err != nil {
			benchCensusErr = err
			return
		}
		w := bufio.NewWriterSize(f, 1<<20)
		if _, err := snap.WriteTo(w); err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			benchCensusErr = err
			return
		}
		benchSnapPath = filepath.Join(dir, "census.snap")
		benchCensusErr = tass.WriteSnapshotFile(benchSnapPath, snap)
	})
	if benchCensusErr != nil {
		b.Fatal(benchCensusErr)
	}
	return benchV1Path, benchSnapPath, benchCensusLast
}

// benchCensusPartition covers the census's populated span with /12s —
// the universe partition of the counting benchmarks.
func benchCensusPartition(b *testing.B, last tass.Addr) tass.Partition {
	b.Helper()
	var pfx []tass.Prefix
	for base := uint64(0); base <= uint64(last); base += 1 << 20 {
		p, err := tass.ParsePrefix(fmt.Sprintf("%v/12", tass.Addr(base)))
		if err != nil {
			b.Fatal(err)
		}
		pfx = append(pfx, p)
	}
	part, err := tass.NewPartition(pfx)
	if err != nil {
		b.Fatal(err)
	}
	return part
}

// BenchmarkOpenSnapshot is the headline of the lazy stack: opening the
// indexed format costs O(blocks) directory decode, against the eager v1
// path's O(hosts) full decode. The huge tier's acceptance bar is lazy
// ≥10× faster than eager.
func BenchmarkOpenSnapshot(b *testing.B) {
	v1Path, snapPath, _ := benchCensusFiles(b)
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap, err := tass.OpenSnapshotFile(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			snap.Close()
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(v1Path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := tass.ReadSnapshot(bufio.NewReaderSize(f, 1<<20)); err != nil {
				b.Fatal(err)
			}
			f.Close()
		}
	})
}

// BenchmarkLazyCount measures a full counting pass over the lazy
// snapshot: cold includes open plus every first-touch block decode
// (reported as block-decodes/op), warm re-counts against whatever the
// LRU kept resident (resident-blocks/op bounds the working set).
func BenchmarkLazyCount(b *testing.B) {
	_, snapPath, last := benchCensusFiles(b)
	part := benchCensusPartition(b, last)
	b.Run("cold", func(b *testing.B) {
		var decodes, resident float64
		for i := 0; i < b.N; i++ {
			snap, err := tass.OpenSnapshotFile(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			counts, _ := snap.CountByPrefixSharded(part, 8)
			if len(counts) != part.Len() {
				b.Fatal("bad counts")
			}
			set := snap.Set()
			decodes = float64(set.Decodes())
			resident = float64(set.ResidentBlocks())
			snap.Close()
		}
		b.ReportMetric(decodes, "block-decodes/op")
		b.ReportMetric(resident, "resident-blocks")
	})
	b.Run("warm", func(b *testing.B) {
		snap, err := tass.OpenSnapshotFile(snapPath)
		if err != nil {
			b.Fatal(err)
		}
		defer snap.Close()
		snap.CountByPrefixSharded(part, 8) // fault everything touchable in
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			counts, _ := snap.CountByPrefixSharded(part, 8)
			if len(counts) != part.Len() {
				b.Fatal("bad counts")
			}
		}
		b.ReportMetric(float64(snap.Set().ResidentBlocks()), "resident-blocks")
	})
}

// BenchmarkVarintDecode pits the batch varint kernel under the block
// decoder against the straightforward binary.Uvarint loop, on the
// census wire shape (mostly 1–2 byte deltas).
func BenchmarkVarintDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 4096)
	var enc []byte
	for i := range vals {
		vals[i] = uint64(1 + rng.Intn(170))
		enc = binary.AppendUvarint(enc, vals[i])
	}
	dst := make([]uint64, len(vals))
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if addrset.DecodeUvarints(dst, enc) < 0 {
				b.Fatal("batch decode failed")
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			off := 0
			for j := range dst {
				v, n := binary.Uvarint(enc[off:])
				if n <= 0 {
					b.Fatal("scalar decode failed")
				}
				dst[j] = v
				off += n
			}
		}
	})
}
