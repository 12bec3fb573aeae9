package main

import (
	"context"
	"fmt"
	"sync"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/experiment"
)

// paperBench is the researcher path: the paper's ranking experiments on
// the reduced-scale world, through RunAll's two-worker pool.
type paperBench struct {
	w   *experiment.World
	ids []string
}

// paperIDs are the experiments a paper iteration runs: every one but the
// scan-in-the-loop testbeds, scanloop and scanpolite. Their scans of
// their own /14 took ≈680 ms of the ≈830 ms of experiment work in a
// two-lane iteration and sat on its critical path, so ranking and
// count-cache changes barely moved it; the scan engine is what campaign
// measures.
func paperIDs() []string {
	var ids []string
	for _, id := range experiment.IDs() {
		if id != "scanloop" && id != "scanpolite" {
			ids = append(ids, id)
		}
	}
	return ids
}

// setupPaper builds experiment.BuildWorld(SmallConfig(worldSeed)), then
// replaces its monthly series, which BuildWorld churns from the world
// seed, by one churned from the run's seed.
func setupPaper(seed int64, sz sizes, ph phases) (instance, error) {
	defer ph.time("world")()
	cfg := experiment.SmallConfig(worldSeed)
	cfg.Scale = sz.paperScale
	cfg.Workers = benchWorkers
	w, err := experiment.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.Series = churn.RunSim(w.U, seed, cfg.Months, churn.RunConfig{Workers: benchWorkers})
	return &paperBench{w: w, ids: paperIDs()}, nil
}

func (b *paperBench) close() error { return nil }

func (b *paperBench) iterate(ctx context.Context, _ int, tr *tracer, root int32) (result, error) {
	var (
		out []experiment.Result
		err error
	)
	if tr == nil {
		out, err = experiment.RunAll(ctx, b.w, b.ids...)
	} else {
		out, err = b.runTraced(tr, root)
	}
	if err != nil {
		return result{}, err
	}
	cache := b.w.Cache
	return result{
		state: out,
		finish: func() (uint64, map[string]float64) {
			hits, misses := cache.Stats()
			// A CLI run starts cold: the next iteration gets an empty
			// cache, swapped in here, outside the timer.
			b.w.Cache = census.NewCountCache()
			return resultsDigest(out), map[string]float64{
				"census.cache_hit_rate": float64(hits) / float64(hits+misses),
			}
		},
	}, nil
}

// runTraced runs each experiment through experiment.Run on a pool of
// benchWorkers goroutines, one span per experiment, splitting the worker
// budget as RunAll does.
func (b *paperBench) runTraced(tr *tracer, root int32) ([]experiment.Result, error) {
	ids := b.ids
	inner := *b.w
	inner.Cfg.Workers = 1
	out := make([]experiment.Result, len(ids))
	errs := make([]error, len(ids))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < benchWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				end := tr.span(root, "experiment."+ids[i])
				out[i], errs[i] = experiment.Run(&inner, ids[i])
				end()
			}
		}()
	}
	for i := range ids {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", ids[i], err)
		}
	}
	return out, nil
}

func resultsDigest(rs []experiment.Result) uint64 {
	h := newDigest()
	for _, r := range rs {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", r.ID, r.Title, r.Text)
	}
	return h.Sum64()
}

// check runs the experiments one after another on a cold cache, as
// experiment.All — the reference path RunAll is golden-tested against —
// does, and requires each iteration's output, pooled or traced, to match
// it byte for byte.
func (b *paperBench) check(_ context.Context, res []result) error {
	w := *b.w
	w.Cache = census.NewCountCache()
	out := make([]experiment.Result, len(b.ids))
	for i, id := range b.ids {
		var err error
		if out[i], err = experiment.Run(&w, id); err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
	}
	return matchDigests(res, map[int]uint64{0: resultsDigest(out)})
}
