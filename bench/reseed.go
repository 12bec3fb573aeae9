package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/topo"
)

// reseedDeltas is how many monthly deltas each reseed iteration applies.
const reseedDeltas = 3

// reseedBench is planning only, at paper scale: open the month-0 census
// lazily, rank and select, then apply three monthly deltas read from
// disk, selecting after each. No scan runs.
type reseedBench struct {
	universe rib.Partition // the m-partition; the rest of the world is dropped
	dir      string
	census   string   // month 0, TASSNAP3
	deltas   []string // month k -> k+1
}

func setupReseed(seed int64, sz sizes, ph phases) (instance, error) {
	done := ph.time("topo")
	prof := topo.DefaultProfiles(sz.reseedScale)[1] // http
	u, err := topo.Generate(topoConfig(sz.reseedBlocks, prof))
	done()
	if err != nil {
		return nil, err
	}
	done = ph.time("churn")
	series, deltas := churn.RunSimDeltas(u, seed, reseedDeltas, churn.RunConfig{Workers: benchWorkers})
	done()

	done = ph.time("write")
	defer done()
	b := &reseedBench{universe: u.More}
	if b.dir, err = os.MkdirTemp("", "tassbench-reseed-"); err != nil {
		return nil, err
	}
	b.census = filepath.Join(b.dir, "census-0.snap")
	if err := census.WriteSnapshotFile(b.census, series[prof.Name].At(0)); err != nil {
		b.close()
		return nil, err
	}
	for k, d := range deltas[prof.Name] {
		path := filepath.Join(b.dir, fmt.Sprintf("delta-%d.bin", k))
		if err := writeDelta(path, d); err != nil {
			b.close()
			return nil, err
		}
		b.deltas = append(b.deltas, path)
	}
	return b, nil
}

func writeDelta(path string, d *census.Delta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := d.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readDelta(path string) (*census.Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return census.ReadDelta(f)
}

func (b *reseedBench) close() error { return os.RemoveAll(b.dir) }

func (b *reseedBench) iterate(_ context.Context, _ int, tr *tracer, root int32) (result, error) {
	st := steps{tr: tr, root: root}
	var (
		snap *census.Snapshot
		r    *core.Ranker
		sels []*core.Selection
	)
	sel := func() (err error) {
		s, err := r.Select(selectOpts)
		sels = append(sels, s)
		return err
	}
	st.do("census.open", func() (err error) { snap, err = census.OpenSnapshotFile(b.census); return })
	st.do("core.rank", func() (err error) { r, err = core.NewRanker(snap, b.universe, benchWorkers, nil); return })
	st.do("core.select", sel)
	for _, path := range b.deltas {
		var d *census.Delta
		st.do("census.read_delta", func() (err error) { d, err = readDelta(path); return })
		st.do("core.apply", func() error { return r.Apply(d) })
		st.do("core.select", sel)
	}
	if snap == nil {
		return result{}, st.err
	}
	set := snap.Set()
	decodes, resident := set.Decodes(), set.ResidentBlocks()
	if err := snap.Close(); st.err == nil {
		st.err = err
	}
	if st.err != nil {
		return result{}, st.err
	}
	return result{
		state: []any{r, sels},
		finish: func() (uint64, map[string]float64) {
			h := newDigest()
			for _, s := range sels {
				putSelection(h, s)
			}
			return h.Sum64(), map[string]float64{
				"census.block_decodes":   float64(decodes),
				"census.resident_blocks": float64(resident),
				"core.space_share":       sels[len(sels)-1].SpaceShare,
			}
		},
	}, nil
}

// check rebuilds every month eagerly — the materialized census plus
// census.ApplyDelta — and requires the ranker's selections to equal a
// full core.SelectCached on each month.
func (b *reseedBench) check(_ context.Context, res []result) error {
	lazy, err := census.OpenSnapshotFile(b.census)
	if err != nil {
		return err
	}
	defer lazy.Close() // the materialized copy shares its set view
	month := lazy.Materialize()
	h := newDigest()
	for k := 0; ; k++ {
		s, err := core.SelectCached(month, b.universe, selectOpts, benchWorkers, nil)
		if err != nil {
			return fmt.Errorf("month %d: %w", k, err)
		}
		putSelection(h, s)
		if k == len(b.deltas) {
			break
		}
		d, err := readDelta(b.deltas[k])
		if err != nil {
			return err
		}
		if month, err = census.ApplyDelta(month, d); err != nil {
			return fmt.Errorf("month %d: %w", k+1, err)
		}
	}
	return matchDigests(res, map[int]uint64{0: h.Sum64()})
}
