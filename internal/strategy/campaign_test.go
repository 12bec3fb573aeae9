package strategy

import (
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/core"
)

func TestCampaignNeverReseed(t *testing.T) {
	u, series := smallWorld(t, 51)
	s := series["http"]
	ev, err := EvaluateCampaign(Campaign{
		Universe: u.More,
		Opts:     core.Options{Phi: 0.95},
	}, s, u.Less.AddressCount())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Reseeds != 1 {
		t.Fatalf("reseeds = %d, want 1", ev.Reseeds)
	}
	if ev.Hitrate[0] != 1 || ev.CostShare[0] != 1 {
		t.Errorf("month 0 must be the full seed scan: %v %v", ev.Hitrate[0], ev.CostShare[0])
	}
	// After month 0, cost is the selection's share and hitrate ≥ ~0.9.
	for m := 1; m < len(ev.Hitrate); m++ {
		if ev.CostShare[m] >= 1 {
			t.Errorf("month %d cost share %v", m, ev.CostShare[m])
		}
		if ev.Hitrate[m] < 0.85 {
			t.Errorf("month %d hitrate %v", m, ev.Hitrate[m])
		}
	}
}

func TestCampaignReseedRestoresAccuracy(t *testing.T) {
	u, series := smallWorld(t, 52)
	s := series["cwmp"] // fastest-decaying protocol
	never, err := EvaluateCampaign(Campaign{Universe: u.More, Opts: core.Options{Phi: 0.95}},
		s, u.Less.AddressCount())
	if err != nil {
		t.Fatal(err)
	}
	every3, err := EvaluateCampaign(Campaign{Universe: u.More, Opts: core.Options{Phi: 0.95}, ReseedEvery: 3},
		s, u.Less.AddressCount())
	if err != nil {
		t.Fatal(err)
	}
	if every3.Reseeds != 3 { // months 0, 3, 6
		t.Fatalf("reseeds = %d, want 3", every3.Reseeds)
	}
	if every3.MeanHitrate <= never.MeanHitrate {
		t.Errorf("reseeding must raise accuracy: %v vs %v", every3.MeanHitrate, never.MeanHitrate)
	}
	if every3.MeanCostShare <= never.MeanCostShare {
		t.Errorf("reseeding must cost more: %v vs %v", every3.MeanCostShare, never.MeanCostShare)
	}
	// Hitrate is fully restored at the reseed month...
	if every3.Hitrate[3] != 1 {
		t.Errorf("month 3 (reseed) hitrate %v", every3.Hitrate[3])
	}
	// ...and the month after a reseed beats the same month without one.
	if every3.Hitrate[4] <= never.Hitrate[4] {
		t.Errorf("post-reseed month 4: %v vs %v", every3.Hitrate[4], never.Hitrate[4])
	}
}

// TestCampaignIncrementalGoldenEquality: the delta-driven campaign
// (ranker repaired per month, reseeds off the repaired ranking) and the
// full per-reseed recompute produce bit-identical evaluations — with
// supplied deltas, and with nil entries derived on the fly.
func TestCampaignIncrementalGoldenEquality(t *testing.T) {
	u, series := smallWorld(t, 53)
	for _, proto := range []string{"http", "cwmp"} {
		s := series[proto]
		var native []*census.Delta
		for m := 1; m < s.Months(); m++ {
			native = append(native, s.At(m-1).Diff(s.At(m)))
		}
		for _, dt := range []int{0, 1, 2, 3} {
			base := Campaign{Universe: u.More, Opts: core.Options{Phi: 0.95}, ReseedEvery: dt}
			want, err := EvaluateCampaign(base, s, u.Less.AddressCount())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []Campaign{
				{Universe: u.More, Opts: base.Opts, ReseedEvery: dt, Deltas: native},
				{Universe: u.More, Opts: base.Opts, ReseedEvery: dt, Deltas: make([]*census.Delta, len(native))},
				{Universe: u.More, Opts: base.Opts, ReseedEvery: dt, Deltas: native, Workers: 8, Cache: census.NewCountCache()},
			} {
				got, err := EvaluateCampaign(c, s, u.Less.AddressCount())
				if err != nil {
					t.Fatal(err)
				}
				if got.Reseeds != want.Reseeds || got.MeanHitrate != want.MeanHitrate ||
					got.MeanCostShare != want.MeanCostShare {
					t.Fatalf("%s Δt=%d: incremental eval diverged: %+v vs %+v", proto, dt, got, want)
				}
				for m := range want.Hitrate {
					if got.Hitrate[m] != want.Hitrate[m] || got.CostShare[m] != want.CostShare[m] {
						t.Fatalf("%s Δt=%d month %d: hitrate/cost diverged", proto, dt, m)
					}
				}
			}
		}
	}
}

func TestCampaignErrors(t *testing.T) {
	u, series := smallWorld(t, 53)
	if _, err := EvaluateCampaign(Campaign{Universe: u.More, Opts: core.Options{Phi: 0.95}},
		&census.Series{Protocol: "x"}, 1); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := EvaluateCampaign(Campaign{Universe: u.More, Opts: core.Options{Phi: 0.95}},
		series["ftp"], 0); err == nil {
		t.Error("zero full-scan cost accepted")
	}
	if _, err := EvaluateCampaign(Campaign{Universe: u.More, Opts: core.Options{Phi: -1}},
		series["ftp"], u.Less.AddressCount()); err == nil {
		t.Error("bad φ accepted")
	}
}
