package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
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

// damagedFixture writes the census damaged-block fixture twice as
// TASSNAP3 files: 8,000 hosts from fileFixtureSnap(26, 8000) of the
// census tests, intact and with one payload byte flipped, so its last
// block fails its checksum on a lazy read.
func damagedFixture(t *testing.T) (intact, damaged string) {
	t.Helper()
	rng := rand.New(rand.NewSource(26))
	addrs := make([]netaddr.Addr, 0, 8000)
	v := uint32(rng.Intn(1 << 16))
	for len(addrs) < cap(addrs) {
		if rng.Intn(100) == 0 {
			v += uint32(rng.Intn(1 << 22))
		}
		v += 1 + uint32(rng.Intn(200))
		addrs = append(addrs, netaddr.Addr(v))
	}
	snap := census.NewSnapshot("https", 4, addrs)
	dir := t.TempDir()
	intact, damaged = filepath.Join(dir, "intact.snap"), filepath.Join(dir, "damaged.snap")
	for _, p := range []string{intact, damaged} {
		if err := census.WriteSnapshotFile(p, snap); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0x10
	if err := os.WriteFile(damaged, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return intact, damaged
}

// TestReseederRefusesDamagedSeed seeds an incremental Reseeder from a
// lazily opened census with an unreadable block and advances it to an
// intact copy without a delta. The derived Diff skips the damaged
// block, so its addresses would come back as births and be counted
// twice. Under either fault policy the Reseeder must refuse with the
// typed block error and keep its state, or select exactly what
// SelectCached selects on the later snapshot.
func TestReseederRefusesDamagedSeed(t *testing.T) {
	intactPath, damagedPath := damagedFixture(t)
	var ps []netaddr.Prefix
	for i := 0; i < 256; i++ {
		ps = append(ps, netaddr.MustPfxFrom(netaddr.Addr(i<<20), 12))
	}
	part, err := rib.NewPartition(ps)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Phi: 0.95}
	for _, policy := range []addrset.FaultPolicy{addrset.FailFast, addrset.Degrade} {
		damaged, err := census.OpenSnapshotFile(damagedPath)
		if err != nil {
			t.Fatal(err)
		}
		defer damaged.Close()
		damaged.SetFaultPolicy(policy)
		intact, err := census.OpenSnapshotFile(intactPath)
		if err != nil {
			t.Fatal(err)
		}
		defer intact.Close()

		rs := NewReseeder(part, opts, 2, census.NewCountCache(), true)
		err = rs.Advance(damaged, nil)
		if err == nil {
			err = rs.Advance(intact, nil)
			if err != nil && rs.snap != damaged {
				t.Fatalf("policy %v: failed Advance moved the reseeder", policy)
			}
		}
		if err != nil {
			var be *addrset.BlockError
			if !errors.As(err, &be) {
				t.Fatalf("policy %v: Advance = %v, want *addrset.BlockError", policy, err)
			}
			continue
		}
		got, err := rs.Select()
		if err != nil {
			t.Fatal(err)
		}
		want, err := SelectCached(intact, part, opts, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSelections(t, "damaged seed", got, want)
	}
}
