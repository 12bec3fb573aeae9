package experiment

import (
	"context"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/churn"
	"github.com/tass-scan/tass/internal/core"
)

// TestIncrementalWorldGoldenEquality is the end-to-end acceptance
// property of the delta pipeline: a world whose series is churned on
// the incremental path (native churn deltas, snapshots derived by
// ApplyDelta) regenerates every experiment byte-identically to the
// full-recompute world, and a ranking repaired by those deltas selects
// as a full recompute does, for seeds 1–3 across worker counts 1/2/8.
// BuildWorld evolves its universe in place, so the incremental world
// churns a freshly generated one.
func TestIncrementalWorldGoldenEquality(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		golden := buildWorldWorkers(t, seed, 1)
		ref, err := All(golden)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, workers := range []int{1, 2, 8} {
			cfg := SmallConfig(seed)
			cfg.Workers = workers
			u, err := generateUniverse(cfg)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			series, deltas := churn.RunSimDeltas(u, cfg.Seed+1, cfg.Months, churn.RunConfig{Workers: workers})
			w := &World{Cfg: cfg, U: u, Series: series, Cache: census.NewCountCache()}
			assertSameSeries(t, golden, w)

			// Spot-check the delta-driven selection path against the
			// full recompute on the evolved months.
			for _, proto := range w.Protocols() {
				s := w.Series[proto]
				if len(deltas[proto]) != s.Months()-1 {
					t.Fatalf("seed %d workers %d %s: %d deltas for %d months", seed, workers, proto, len(deltas[proto]), s.Months())
				}
				r, err := core.NewRanker(s.At(0), w.U.More, w.Cfg.workers(), w.Cache)
				if err != nil {
					t.Fatal(err)
				}
				for m := 1; m < s.Months(); m++ {
					if err := r.Apply(deltas[proto][m-1]); err != nil {
						t.Fatalf("seed %d %s month %d: %v", seed, proto, m, err)
					}
				}
				inc, err := r.Select(core.Options{Phi: 0.95})
				if err != nil {
					t.Fatal(err)
				}
				full, err := w.Select(s.At(s.Months()-1), w.U.More, core.Options{Phi: 0.95})
				if err != nil {
					t.Fatal(err)
				}
				if inc.K != full.K || inc.SeedHosts != full.SeedHosts || inc.Space != full.Space ||
					inc.HostCoverage != full.HostCoverage {
					t.Fatalf("seed %d %s: incremental selection diverged after %d deltas",
						seed, proto, s.Months()-1)
				}
			}

			got, err := RunAll(context.Background(), w)
			if err != nil {
				t.Fatalf("seed %d workers %d: RunAll: %v", seed, workers, err)
			}
			if len(got) != len(ref) {
				t.Fatalf("seed %d workers %d: %d results, want %d", seed, workers, len(got), len(ref))
			}
			for i := range ref {
				if got[i].ID != ref[i].ID || got[i].Text != ref[i].Text {
					t.Errorf("seed %d workers %d %s: incremental world output differs:\n--- full\n%s\n--- incremental\n%s",
						seed, workers, ref[i].ID, ref[i].Text, got[i].Text)
				}
			}
		}
	}
}
