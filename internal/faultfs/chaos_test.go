package faultfs_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/coord"
	"github.com/tass-scan/tass/internal/core"
	"github.com/tass-scan/tass/internal/faultfs"
	"github.com/tass-scan/tass/internal/fsck"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
	"github.com/tass-scan/tass/internal/scan"
)

// The chaos suite: every test sweeps deterministic single-bit flips over
// a valid on-disk artifact and asserts the stack's corruption contract —
// no code path panics, damage surfaces as a typed error or a degraded
// (and reported) result, and `tass fsck -repair` always converges to a
// verifiable file or a whole-file quarantine. A failing case is pinned
// by its bit offset alone.

func chaosSnapshot(t *testing.T, hosts int) *census.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(1701))
	addrs := make([]netaddr.Addr, 0, hosts)
	v := uint32(10 << 24)
	for len(addrs) < hosts {
		v += 1 + uint32(rng.Intn(300))
		addrs = append(addrs, netaddr.Addr(v))
	}
	return census.NewSnapshot("https", 7, addrs)
}

// noPanic runs f, converting a panic into a test failure naming the case.
func noPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic: %v", label, r)
		}
	}()
	f()
}

func TestChaosSnapshotBitSweep(t *testing.T) {
	snap := chaosSnapshot(t, 2500)
	dir := t.TempDir()
	path := filepath.Join(dir, "census.snap")
	if err := census.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, bit := range faultfs.SweepBits(int64(len(raw)), 256, 1) {
		label := fmt.Sprintf("bit %d", bit)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		noPanic(t, label, func() {
			// Reading the damaged file never panics: open either refuses
			// (typed error) or degrades around the damage and reports it.
			if s, err := census.OpenSnapshotFile(path); err == nil {
				s.SetFaultPolicy(addrset.Degrade)
				got := s.Set().AppendTo(nil)
				if len(got) > snap.Hosts() {
					t.Fatalf("%s: degraded read invented %d addresses", label, len(got)-snap.Hosts())
				}
				if len(got) < snap.Hosts() && len(s.StorageFaults()) == 0 {
					t.Fatalf("%s: %d addresses lost without a recorded fault", label, snap.Hosts()-len(got))
				}
				s.Close()
			}

			// fsck -repair converges: afterwards the path either verifies
			// end to end or was quarantined whole.
			res, err := fsck.Repair(path)
			if err != nil {
				t.Fatalf("%s: fsck repair: %v", label, err)
			}
			if _, err := os.Stat(path); err == nil {
				if verr := census.VerifySnapshotFile(path); verr != nil {
					t.Fatalf("%s: post-repair file fails verify: %v (fsck said %+v)", label, verr, res)
				}
			} else if res.QuarantinePath == "" {
				t.Fatalf("%s: file gone without a quarantine path", label)
			}
		})
		// Clear quarantine sidecars so the next case starts clean.
		os.Remove(path + ".quarantine")
	}
}

func TestChaosCheckpointBitSweep(t *testing.T) {
	cp := &scan.Checkpoint{
		N: 100000, Seed: 99, Shard: 1, Shards: 4, Workers: 2,
		Consumed: []uint64{1234, 5678},
		ASProbed: map[uint32]uint64{64500: 42},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "scan.checkpoint")
	if err := scan.WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, bit := range faultfs.SweepBits(int64(len(raw)), 2048, 2) {
		label := fmt.Sprintf("bit %d", bit)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		noPanic(t, label, func() {
			// A flipped cursor file must never load as a different cursor:
			// either the checksum (or parse) refuses it, or — for flips
			// the format provably cannot hide — the load fails.
			if got, err := scan.ReadCheckpointFile(path); err == nil {
				if got.N != cp.N || got.Seed != cp.Seed || got.Shard != cp.Shard ||
					got.Workers != cp.Workers || len(got.Consumed) != len(cp.Consumed) {
					t.Fatalf("%s: corrupted checkpoint loaded as a different cursor: %+v", label, got)
				}
			}
			if _, err := fsck.Repair(path); err != nil {
				t.Fatalf("%s: fsck repair: %v", label, err)
			}
			// Post-repair the path is either loadable or quarantined whole.
			if _, err := os.Stat(path); err == nil {
				if _, lerr := scan.ReadCheckpointFile(path); lerr != nil {
					t.Fatalf("%s: post-repair checkpoint unreadable: %v", label, lerr)
				}
			} else if _, qerr := os.Stat(path + ".quarantine"); qerr != nil {
				t.Fatalf("%s: file gone without quarantine", label)
			}
		})
		os.Remove(path + ".quarantine")
	}
}

func TestChaosCoordStateBitSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.state")
	payload := []byte(`{"campaign":"chaos","cycle":3,"shards":[0,1,2,3]}`)
	if err := coord.NewFileStore(path).Save(payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, bit := range faultfs.SweepBits(int64(len(raw)), 2048, 3) {
		label := fmt.Sprintf("bit %d", bit)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		noPanic(t, label, func() {
			// The checksummed header must refuse every flip that changes
			// the payload; header flips fail their own parse.
			if got, err := coord.NewFileStore(path).Load(); err == nil {
				if string(got) != string(payload) {
					t.Fatalf("%s: corrupted state loaded as different payload: %q", label, got)
				}
			}
			if _, err := fsck.Repair(path); err != nil {
				t.Fatalf("%s: fsck repair: %v", label, err)
			}
			if _, err := os.Stat(path); err == nil {
				if _, lerr := coord.NewFileStore(path).Load(); lerr != nil {
					t.Fatalf("%s: post-repair state unreadable: %v", label, lerr)
				}
			} else if _, qerr := os.Stat(path + ".quarantine"); qerr != nil {
				t.Fatalf("%s: file gone without quarantine", label)
			}
		})
		os.Remove(path + ".quarantine")
	}
}

// findBlockZeroFlip scans candidate bit offsets of the snapshot file at
// path for one whose flip lands in block 0's payload: the index still
// parses and the scrub blames block 0 first. The file is
// restored before returning; the search is deterministic for fixed file
// bytes.
func findBlockZeroFlip(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}()
	for off := int64(9); off < int64(len(raw)); off += 7 {
		bit := off * 8
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		rep, err := census.ScrubSnapshotFile(path)
		if err != nil || rep.IndexErr != nil || len(rep.Damage) == 0 {
			continue
		}
		var be *addrset.BlockError
		if errors.As(rep.Damage[0].Err, &be) && be.Block == 0 {
			return bit
		}
	}
	t.Fatal("no candidate flip lands in block 0's payload")
	return 0
}

// TestSelectionOverDamagedSnapshot drives the top of the stack: target
// selection — single and over a φ grid — over a lazily-read snapshot
// with a damaged payload block fails loudly under FailFast and
// completes (reporting the skipped block) under Degrade.
func TestSelectionOverDamagedSnapshot(t *testing.T) {
	snap := chaosSnapshot(t, 4000)
	dir := t.TempDir()
	path := filepath.Join(dir, "census.snap")
	if err := census.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside block 0's payload: the index stays trusted, the
	// block fails its checksum — and the /20 grid below guarantees a
	// counting boundary lands inside it, forcing the decode.
	if err := faultfs.FlipBit(path, findBlockZeroFlip(t, path)); err != nil {
		t.Fatal(err)
	}

	// A /20 grid over the populated span: prefix boundaries land inside
	// payload blocks, so counting decodes them instead of trusting the
	// directory.
	last := snap.Addrs[len(snap.Addrs)-1]
	var pfx []netaddr.Prefix
	for base := uint32(10 << 24); netaddr.Addr(base) <= last; base += 1 << 12 {
		pfx = append(pfx, netaddr.MustPrefixFrom(netaddr.Addr(base), 20))
	}
	part, err := rib.NewPartition(pfx)
	if err != nil {
		t.Fatal(err)
	}

	failfast, err := census.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer failfast.Close()
	if _, err := core.SelectCached(failfast, part, core.Options{Phi: 1}, 2, census.NewCountCache()); err == nil {
		t.Fatal("selection over damaged snapshot succeeded under FailFast")
	}
	grid := []core.Options{{Phi: 1}, {Phi: 0.5}}
	if _, err := core.SelectManyCached(failfast, part, grid, 2, census.NewCountCache()); err == nil {
		t.Fatal("grid selection over damaged snapshot succeeded under FailFast")
	}

	degraded, err := census.OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer degraded.Close()
	degraded.SetFaultPolicy(addrset.Degrade)
	sel, err := core.SelectCached(degraded, part, core.Options{Phi: 1}, 2, census.NewCountCache())
	if err != nil {
		t.Fatalf("degraded selection failed: %v", err)
	}
	if sel == nil || len(sel.Prefixes()) == 0 {
		t.Fatal("degraded selection selected nothing")
	}
	if len(degraded.StorageFaults()) == 0 {
		t.Fatal("degraded selection reported no storage faults")
	}
	sels, err := core.SelectManyCached(degraded, part, grid, 2, census.NewCountCache())
	if err != nil {
		t.Fatalf("degraded grid selection failed: %v", err)
	}
	if len(sels) != len(grid) || sels[0].K != sel.K {
		t.Fatalf("degraded grid selection diverged from the single selection: %d plans", len(sels))
	}
	if len(degraded.StorageFaults()) == 0 {
		t.Fatal("degraded grid selection reported no storage faults")
	}
}
