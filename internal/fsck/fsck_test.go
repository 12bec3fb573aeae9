package fsck_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/coord"
	"github.com/tass-scan/tass/internal/fsck"
	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/scan"
)

func writeSnapshot(t *testing.T, dir string) (string, *census.Snapshot) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	addrs := make([]netaddr.Addr, 0, 3000)
	v := uint32(1 << 20)
	for len(addrs) < 3000 {
		v += 1 + uint32(rng.Intn(250))
		addrs = append(addrs, netaddr.Addr(v))
	}
	snap := census.NewSnapshot("ssh", 3, addrs)
	path := filepath.Join(dir, "census.snap")
	if err := census.WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	return path, snap
}

func flip(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestFsckSnapshot(t *testing.T) {
	path, snap := writeSnapshot(t, t.TempDir())

	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Kind != fsck.KindSnapshot {
		t.Fatalf("clean snapshot: %+v", res)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flip(t, path, st.Size()-12, 0x08)
	res, err = fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || len(res.Findings) == 0 {
		t.Fatalf("damage missed: %+v", res)
	}
	if res.Repaired {
		t.Fatal("read-only Check repaired")
	}

	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("repair: %+v", res)
	}
	if res.RecoveredHosts+res.LostAddrs != snap.Hosts() {
		t.Fatalf("recovered %d + lost %d != %d", res.RecoveredHosts, res.LostAddrs, snap.Hosts())
	}
	if err := census.VerifySnapshotFile(path); err != nil {
		t.Fatalf("repaired snapshot fails verify: %v", err)
	}
	if _, err := os.Stat(res.QuarantinePath); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
}

// TestFsckSnapshotV2Upgrade runs the TASSNAP2 upgrade path end to end
// on the checked-in fixture: Check flags the format, Repair rewrites the
// file as TASSNAP3 holding the same addresses, protocol and month, and
// the result checks clean.
func TestFsckSnapshotV2Upgrade(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "census", "testdata", "v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "census.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// What the fixture holds, read through the scrub (the only reader
	// that still opens TASSNAP2) before the upgrade.
	before, err := census.ScrubSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}

	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || len(res.Findings) != 1 || !strings.Contains(res.Findings[0], "TASSNAP2") {
		t.Fatalf("v2 check: %+v", res)
	}
	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath != "" || res.LostAddrs != 0 || res.RecoveredHosts != before.Hosts {
		t.Fatalf("v2 repair: %+v", res)
	}
	if res, err := fsck.Check(path); err != nil || !res.Clean {
		t.Fatalf("upgraded file: %+v, %v", res, err)
	}
	snap, err := census.OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("upgraded file does not open: %v", err)
	}
	defer snap.Close()
	// fileFixtureSnap(27, 2000) in the census tests wrote the fixture.
	if snap.Protocol != "https" || snap.Month != 4 || snap.Hosts() != 2000 {
		t.Fatalf("upgrade changed the snapshot: %q/%d, %d hosts", snap.Protocol, snap.Month, snap.Hosts())
	}
}

// TestFsckSnapshotV1NeedsConversion checks the v1 stream status: not
// clean, not damage, untouched by Repair, and pointing at convert.
func TestFsckSnapshotV1NeedsConversion(t *testing.T) {
	dir := t.TempDir()
	_, snap := writeSnapshot(t, dir)
	path := filepath.Join(dir, "census.v1")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func(string) (*fsck.Result, error){fsck.Check, fsck.Repair} {
		res, err := run(path)
		if err != nil {
			t.Fatal(err)
		}
		if res.Clean || !res.NeedsConversion || res.Repaired || res.QuarantinePath != "" || res.Kind != fsck.KindSnapshot {
			t.Fatalf("v1 stream: %+v", res)
		}
		if len(res.Findings) != 1 || !strings.Contains(res.Findings[0], "tass convert -in") {
			t.Fatalf("v1 stream findings: %q", res.Findings)
		}
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(raw) {
		t.Fatalf("fsck changed the v1 stream (err %v)", err)
	}
	// Damage never reads as a conversion.
	damaged, _ := writeSnapshot(t, t.TempDir())
	flip(t, damaged, 14, 0x01)
	if res, err := fsck.Check(damaged); err != nil || res.NeedsConversion || res.Clean {
		t.Fatalf("damaged TASSNAP3: %+v, %v", res, err)
	}
}

func TestFsckSnapshotIndexDamage(t *testing.T) {
	path, _ := writeSnapshot(t, t.TempDir())
	flip(t, path, 14, 0x01) // inside the directory: index CRC fails

	res, err := fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("unusable index not moved aside: %+v", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("damaged file still in place")
	}
	if _, err := os.Stat(res.QuarantinePath); err != nil {
		t.Fatal("quarantined bytes missing")
	}
}

func TestFsckCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cp := &scan.Checkpoint{N: 500, Seed: 1, Shards: 1, Workers: 1, Consumed: []uint64{7}}
	path := filepath.Join(dir, "scan.checkpoint")
	if err := scan.WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Kind != fsck.KindCheckpoint {
		t.Fatalf("clean checkpoint: %+v", res)
	}

	// Legacy file: a finding, and -repair upgrades it in place.
	legacy, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	lpath := filepath.Join(dir, "legacy.checkpoint")
	if err := os.WriteFile(lpath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = fsck.Check(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean || !strings.Contains(strings.Join(res.Findings, " "), "legacy") {
		t.Fatalf("legacy not flagged: %+v", res)
	}
	if _, err := scan.ReadCheckpointFile(lpath); err == nil || !strings.Contains(err.Error(), "tass fsck -repair") {
		t.Fatalf("legacy checkpoint load: got %v, want an error naming tass fsck -repair", err)
	}
	res, err = fsck.Repair(lpath)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatalf("legacy not upgraded: %+v", res)
	}
	back, err := scan.ReadCheckpointFile(lpath)
	if err != nil {
		t.Fatalf("upgraded checkpoint unreadable: %v", err)
	}
	if !reflect.DeepEqual(back, cp) {
		t.Fatalf("upgrade changed the cursor: %+v", back)
	}

	// Corrupt file: moved aside whole.
	flip(t, path, int64(len("{\"format\":\"tass-checkpoint\",\"v\":1,\"crc\":1")), 0x04)
	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("corrupt checkpoint kept in place: %+v", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt checkpoint still at path")
	}
}

func TestFsckCoordState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.state")
	if err := coord.NewFileStore(path).Save([]byte(`{"cycle":1}`)); err != nil {
		t.Fatal(err)
	}
	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || res.Kind != fsck.KindCoordState {
		t.Fatalf("clean coord state: %+v", res)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flip(t, path, st.Size()-2, 0x02)
	res, err = fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean {
		t.Fatalf("corrupt coord state passed: %+v", res)
	}
	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("corrupt coord state kept in place: %+v", res)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt coord state still at path")
	}
}

func TestFsckUnknown(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(path, []byte("not an artifact\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := fsck.Check(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != fsck.KindUnknown || res.Clean {
		t.Fatalf("unknown file: %+v", res)
	}
	// Check never touches the file; Repair quarantines it (fsck is only
	// handed paths that are supposed to be artifacts).
	if _, err := os.Stat(path); err != nil {
		t.Fatal("read-only Check moved the file")
	}
	res, err = fsck.Repair(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired || res.QuarantinePath == "" {
		t.Fatalf("unknown file not quarantined: %+v", res)
	}
	if _, err := fsck.Check(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file produced a result")
	}
}

// TestFsckConcurrentChecks runs Check and Repair from several
// goroutines at once over checkpoint (current and checksum-less) and
// snapshot files. fsck holds no process-wide state, so under -race the
// calls must not touch any shared variable, and every result must match
// what a lone call reports.
func TestFsckConcurrentChecks(t *testing.T) {
	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		dir := t.TempDir()
		cp := &scan.Checkpoint{N: 900, Seed: int64(g), Shards: 1, Workers: 1, Consumed: []uint64{uint64(g)}}
		cpath := filepath.Join(dir, "scan.checkpoint")
		if err := scan.WriteCheckpointFile(cpath, cp); err != nil {
			t.Fatal(err)
		}
		legacy, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		lpath := filepath.Join(dir, "legacy.checkpoint")
		if err := os.WriteFile(lpath, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		spath, _ := writeSnapshot(t, dir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, p := range []string{cpath, lpath, spath} {
					res, err := fsck.Check(p)
					if err != nil {
						errs <- err
						return
					}
					if p != lpath && !res.Clean {
						errs <- fmt.Errorf("%s: clean file reported dirty: %v", p, res.Findings)
						return
					}
				}
			}
			if res, err := fsck.Repair(spath); err != nil || !res.Clean || res.Repaired {
				errs <- fmt.Errorf("clean snapshot repair: %+v, %v", res, err)
				return
			}
			res, err := fsck.Repair(lpath)
			if err != nil || !res.Repaired {
				errs <- fmt.Errorf("legacy upgrade: %+v, %v", res, err)
				return
			}
			back, err := scan.ReadCheckpointFile(lpath)
			if err != nil || back.Seed != cp.Seed || back.Consumed[0] != cp.Consumed[0] {
				errs <- fmt.Errorf("upgraded checkpoint: %+v, %v", back, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
