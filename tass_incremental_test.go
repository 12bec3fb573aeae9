package tass_test

import (
	"bytes"
	"slices"
	"testing"

	"github.com/tass-scan/tass"
)

// TestPublicDeltaPipeline exercises the exported incremental surface
// end to end: simulate with native deltas, reconstruct the series by
// ApplyDelta, ship a delta through the wire codec, and keep an
// IncrementalSelector byte-identical to full selections.
func TestPublicDeltaPipeline(t *testing.T) {
	u, err := tass.GenerateUniverse(tass.ScaledUniverseConfig(3, 0.004))
	if err != nil {
		t.Fatal(err)
	}
	series, deltas := tass.SimulateSeriesDeltas(u, 4, 3, tass.SimConfig{Workers: 4})
	proto := u.Protocols()[0]
	s := series[proto]
	ds := deltas[proto]
	if len(ds) != s.Months()-1 {
		t.Fatalf("%d deltas for %d months", len(ds), s.Months())
	}

	// The delta chain reconstructs the series exactly.
	cur := s.At(0)
	for m, d := range ds {
		if d.Changed() == 0 {
			t.Fatalf("month %d: empty delta from a churning world", m)
		}
		next, err := tass.ApplyDelta(cur, d)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(next.Addrs, s.At(m+1).Addrs) {
			t.Fatalf("month %d: ApplyDelta diverges from the series", m+1)
		}
		cur = next
	}

	// Wire codec round trip.
	var buf bytes.Buffer
	if _, err := ds[0].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := tass.ReadDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Born, ds[0].Born) || !slices.Equal(back.Died, ds[0].Died) {
		t.Fatal("delta codec round trip diverged")
	}

	// DeltaOf agrees with the native emission.
	if d := tass.DeltaOf(s.At(0), s.At(1)); !slices.Equal(d.Born, ds[0].Born) || !slices.Equal(d.Died, ds[0].Died) {
		t.Fatal("DeltaOf diverges from the native delta")
	}

	// Incremental selection == full selection on every month.
	cache := tass.NewCountCache()
	sel, err := tass.NewIncrementalSelector(s.At(0), u.More, 2, cache)
	if err != nil {
		t.Fatal(err)
	}
	opts := tass.Options{Phi: 0.95}
	for m := 1; m < s.Months(); m++ {
		if err := sel.Apply(ds[m-1]); err != nil {
			t.Fatal(err)
		}
		inc, err := sel.Select(opts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := tass.SelectCached(s.At(m), u.More, opts, 2, cache)
		if err != nil {
			t.Fatal(err)
		}
		if inc.K != full.K || inc.SeedHosts != full.SeedHosts || inc.Space != full.Space ||
			inc.HostCoverage != full.HostCoverage ||
			!slices.Equal(inc.Partition().Prefixes(), full.Partition().Prefixes()) {
			t.Fatalf("month %d: incremental selection diverged from full recompute", m)
		}
	}
}
