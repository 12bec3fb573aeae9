package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
)

// nativeDelta builds the month-over-month delta by set difference, the
// way a churn simulator records it, independently of Snapshot.Diff's
// merge walk.
func nativeDelta(prev, next *census.Snapshot) *census.Delta {
	in := func(s *census.Snapshot) map[netaddr.Addr]bool {
		m := make(map[netaddr.Addr]bool, len(s.Addrs))
		for _, a := range s.Addrs {
			m[a] = true
		}
		return m
	}
	was, is := in(prev), in(next)
	d := &census.Delta{Protocol: next.Protocol, FromMonth: prev.Month, ToMonth: next.Month}
	for _, a := range next.Addrs {
		if !was[a] {
			d.Born = append(d.Born, a)
		}
	}
	for _, a := range prev.Addrs {
		if !is[a] {
			d.Died = append(d.Died, a)
		}
	}
	slices.Sort(d.Born)
	slices.Sort(d.Died)
	return d
}

// TestReseederMatchesSelectCached walks every reseed path — delta
// repair from native deltas, delta repair from on-the-fly Diffs, and
// the full recount — and pins each month's selection to a fresh serial
// SelectCached on that month's snapshot.
func TestReseederMatchesSelectCached(t *testing.T) {
	part := incPartition(t)
	opts := Options{Phi: 0.95}
	cases := []struct {
		name        string
		incremental bool
		native      bool
	}{
		{"incremental/native-deltas", true, true},
		{"incremental/nil-deltas", true, false},
		{"full-recount", false, false},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			for _, workers := range []int{1, 4} {
				rng := rand.New(rand.NewSource(seed))
				snap := incSnapshot(rng, 0, 4000)
				rs := NewReseeder(part, opts, workers, census.NewCountCache(), c.incremental)
				if _, err := rs.Select(); err == nil {
					t.Fatalf("%s: Select before Advance must fail", c.name)
				}
				var prev *census.Snapshot
				for month := 0; month <= 6; month++ {
					if month > 0 {
						snap = churnSnapshot(rng, prev, month, 0.02+0.1*rng.Float64())
					}
					var d *census.Delta
					if c.native && prev != nil {
						d = nativeDelta(prev, snap)
					}
					if err := rs.Advance(snap, d); err != nil {
						t.Fatalf("%s seed %d month %d: %v", c.name, seed, month, err)
					}
					if (rs.ranker != nil) != c.incremental {
						t.Fatalf("%s: ranker present = %v", c.name, rs.ranker != nil)
					}
					got, err := rs.Select()
					if err != nil {
						t.Fatal(err)
					}
					want, err := SelectCached(snap, part, opts, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualSelections(t, c.name, got, want)
					prev = snap
				}
			}
		}
	}
}

// TestReseederAdvanceErrorLeavesState feeds a delta that does not match
// the ranked snapshot: Advance must fail and the next selection must
// still be the previous month's.
func TestReseederAdvanceErrorLeavesState(t *testing.T) {
	part := incPartition(t)
	opts := Options{Phi: 0.95}
	rng := rand.New(rand.NewSource(4))
	snap := incSnapshot(rng, 0, 2000)
	rs := NewReseeder(part, opts, 1, nil, true)
	if err := rs.Advance(snap, nil); err != nil {
		t.Fatal(err)
	}
	next := churnSnapshot(rng, snap, 1, 0.05)
	// A hundred deaths in one /20 whose seed hosts all sit in its first
	// 64 addresses: the count would drop below zero.
	bogus := &census.Delta{}
	for off := netaddr.Addr(64); off < 164; off++ {
		bogus.Died = append(bogus.Died, part.FirstAt(1)+off)
	}
	if err := rs.Advance(next, bogus); err == nil {
		t.Fatal("mismatched delta accepted")
	}
	got, err := rs.Select()
	if err != nil {
		t.Fatal(err)
	}
	want, err := SelectCached(snap, part, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualSelections(t, "after failed Advance", got, want)
}
