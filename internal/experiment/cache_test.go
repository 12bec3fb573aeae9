package experiment

import (
	"context"
	"testing"
)

// TestCountCacheGoldenEquality is the memoization contract: for seeds
// 1-3, every experiment run with the shared count cache produces
// byte-identical Results to the uncached path. The two runs share one
// world (universe and series are built once), differing only in the
// cache, so any divergence is the cache's fault.
func TestCountCacheGoldenEquality(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w, err := BuildWorld(SmallConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if w.Cache == nil {
			t.Fatalf("seed %d: BuildWorld did not attach a count cache", seed)
		}
		wPlain := *w
		wPlain.Cache = nil

		golden, err := All(&wPlain)
		if err != nil {
			t.Fatalf("seed %d: uncached All: %v", seed, err)
		}
		got, err := RunAll(context.Background(), w)
		if err != nil {
			t.Fatalf("seed %d: cached RunAll: %v", seed, err)
		}
		if len(got) != len(golden) {
			t.Fatalf("seed %d: %d results, want %d", seed, len(got), len(golden))
		}
		for i := range golden {
			if got[i].ID != golden[i].ID {
				t.Errorf("seed %d result %d: id %q, want %q", seed, i, got[i].ID, golden[i].ID)
			}
			if got[i].Text != golden[i].Text {
				t.Errorf("seed %d %s: cached output differs from uncached:\n--- uncached\n%s\n--- cached\n%s",
					seed, golden[i].ID, golden[i].Text, got[i].Text)
			}
		}

		// The cache must actually have been exercised: the figures rank
		// the same (seed, universe) pairs repeatedly.
		if hits, misses := w.Cache.Stats(); misses == 0 || hits == 0 {
			t.Errorf("seed %d: cache saw %d hits / %d misses; expected traffic on both", seed, hits, misses)
		}
	}
}
