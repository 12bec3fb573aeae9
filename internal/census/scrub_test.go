package census

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/netaddr"
)

// flipByte XORs one byte of the file at path in place.
func flipByte(t *testing.T, path string, off int64, mask byte) {
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

func TestScrubCleanSnapshot(t *testing.T) {
	eager := fileFixtureSnap(21, 12000)
	path := writeSnapFile(t, eager)
	rep, err := ScrubSnapshotFile(path)
	if err != nil {
		t.Fatalf("ScrubSnapshotFile: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("clean file scrubbed dirty: %+v", rep)
	}
	if rep.Format != "TASSNAP3" {
		t.Fatalf("Format = %q want TASSNAP3", rep.Format)
	}
	if rep.Hosts != eager.Hosts() {
		t.Fatalf("Hosts = %d want %d", rep.Hosts, eager.Hosts())
	}
	if rep.Blocks == 0 {
		t.Fatal("Blocks = 0")
	}
}

func TestScrubAndRepairDamagedBlock(t *testing.T) {
	eager := fileFixtureSnap(22, 20000)
	path := writeSnapFile(t, eager)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// One flipped bit near the end of the file lands inside the last
	// payload block (the index is at the front).
	flipByte(t, path, st.Size()-10, 0x40)

	scrub, err := ScrubSnapshotFile(path)
	if err != nil {
		t.Fatalf("ScrubSnapshotFile: %v", err)
	}
	if scrub.Clean() {
		t.Fatal("corrupt file scrubbed clean")
	}
	if scrub.IndexErr != nil {
		t.Fatalf("index blamed for payload damage: %v", scrub.IndexErr)
	}
	if scrub.PayloadCRCOK {
		t.Fatal("payload CRC passed over flipped bit")
	}
	if len(scrub.Damage) == 0 {
		t.Fatal("no block damage reported")
	}
	lost := 0
	for _, d := range scrub.Damage {
		if d.Len <= 0 || d.Off <= 0 || int64(d.Off+d.Len) > st.Size() {
			t.Fatalf("damage extent [%d,%d) outside file", d.Off, d.Off+d.Len)
		}
		if d.Err == nil {
			t.Fatal("damage without an error")
		}
		lost += d.Lost
	}
	if scrub.Hosts+lost != eager.Hosts() {
		t.Fatalf("intact %d + lost %d != total %d", scrub.Hosts, lost, eager.Hosts())
	}

	rep, err := RepairSnapshotFile(path)
	if err != nil {
		t.Fatalf("RepairSnapshotFile: %v", err)
	}
	if !rep.Repaired {
		t.Fatal("damaged file not repaired")
	}
	if rep.RecoveredHosts != scrub.Hosts || rep.LostAddrs != lost {
		t.Fatalf("recovered %d / lost %d, want %d / %d",
			rep.RecoveredHosts, rep.LostAddrs, scrub.Hosts, lost)
	}
	if rep.QuarantinePath == "" {
		t.Fatal("no quarantine sidecar")
	}
	qraw, err := os.ReadFile(rep.QuarantinePath)
	if err != nil {
		t.Fatalf("quarantine sidecar: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(qraw))
	if !sc.Scan() {
		t.Fatal("empty quarantine sidecar")
	}
	var head quarantineRecord
	if err := json.Unmarshal(sc.Bytes(), &head); err != nil || head.Quarantine != "tass-snapshot" {
		t.Fatalf("quarantine header %q: %v", sc.Text(), err)
	}
	recs := 0
	for sc.Scan() {
		var rec quarantineRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("quarantine record: %v", err)
		}
		if rec.Data == "" && rec.ReadErr == "" {
			t.Fatal("quarantine record lost the damaged bytes")
		}
		recs++
	}
	if recs != len(scrub.Damage) {
		t.Fatalf("%d quarantine records for %d damaged blocks", recs, len(scrub.Damage))
	}

	// The repaired file verifies end to end and holds exactly the
	// intact addresses (a subset of the original population).
	if err := VerifySnapshotFile(path); err != nil {
		t.Fatalf("repaired file fails verify: %v", err)
	}
	again, err := ScrubSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Clean() {
		t.Fatalf("repaired file scrubs dirty: %+v", again)
	}
	snap, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	got := snap.Set().AppendTo(nil)
	if len(got) != rep.RecoveredHosts {
		t.Fatalf("repaired file holds %d addrs, repair said %d", len(got), rep.RecoveredHosts)
	}
	i := 0
	for _, a := range got {
		for i < len(eager.Addrs) && eager.Addrs[i] != a {
			i++
		}
		if i == len(eager.Addrs) {
			t.Fatalf("repaired file invented address %v", a)
		}
	}
}

func TestRepairCleanFileIsNoop(t *testing.T) {
	eager := fileFixtureSnap(23, 4000)
	path := writeSnapFile(t, eager)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RepairSnapshotFile(path)
	if err != nil {
		t.Fatalf("RepairSnapshotFile(clean): %v", err)
	}
	if rep.Repaired {
		t.Fatal("clean file reported repaired")
	}
	if rep.RecoveredHosts != eager.Hosts() {
		t.Fatalf("RecoveredHosts = %d want %d", rep.RecoveredHosts, eager.Hosts())
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatal("no-op repair rewrote the file")
	}
}

func TestRepairUnusableIndex(t *testing.T) {
	eager := fileFixtureSnap(24, 3000)
	path := writeSnapFile(t, eager)
	flipByte(t, path, 12, 0x01) // inside the header/directory

	scrub, err := ScrubSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if scrub.IndexErr == nil {
		t.Fatal("index corruption not attributed to the index")
	}
	if _, err := RepairSnapshotFile(path); err == nil {
		t.Fatal("repaired a file with an unusable index")
	}
}

// TestVerifyIndexOKPayloadCorrupt pins the split the lazy stack depends
// on: a payload flip leaves the index CRC valid, so open succeeds and the
// damage surfaces only at first decode — as a typed *addrset.BlockError —
// while the deep verify rejects the file.
func TestVerifyIndexOKPayloadCorrupt(t *testing.T) {
	eager := fileFixtureSnap(26, 8000)
	path := writeSnapFile(t, eager)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, st.Size()-5, 0x10)

	snap, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("open after payload flip: %v", err)
	}
	defer snap.Close()
	if err := VerifySnapshotFile(path); err == nil {
		t.Fatal("payload flip passed deep verify")
	}
	rep, err := ScrubSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damage) == 0 {
		t.Fatal("scrub missed the damaged block")
	}
	var be *addrset.BlockError
	if err := rep.Damage[0].Err; !errors.As(err, &be) {
		t.Fatalf("fault is %T, want *addrset.BlockError: %v", err, err)
	}
	// An ordinary read through the cache records the fault on the set's
	// ledger, where StorageErr/StorageFaults surface it.
	_ = snap.Set().AppendTo(nil)
	if err := snap.StorageErr(); err == nil {
		t.Fatal("StorageErr nil after a faulted read")
	}
	if len(snap.StorageFaults()) == 0 {
		t.Fatal("StorageFaults empty after a faulted read")
	}
}

// TestApplyDeltaRefusesDamagedBlock pins that a delta never merges over
// a lazy snapshot with an unreadable block: the full decode would skip
// the block, and the eager result would silently lose its addresses
// with no fault left to report. Both fault policies refuse.
func TestApplyDeltaRefusesDamagedBlock(t *testing.T) {
	eager := fileFixtureSnap(26, 8000)
	path := writeSnapFile(t, eager)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, st.Size()-5, 0x10)

	for _, policy := range []addrset.FaultPolicy{addrset.FailFast, addrset.Degrade} {
		snap, err := OpenSnapshotFile(path)
		if err != nil {
			t.Fatalf("open after payload flip: %v", err)
		}
		snap.SetFaultPolicy(policy)
		d := &Delta{Protocol: snap.Protocol, FromMonth: snap.Month, ToMonth: snap.Month + 1}
		got, err := ApplyDelta(snap, d)
		snap.Close()
		var be *addrset.BlockError
		if !errors.As(err, &be) {
			t.Fatalf("policy %v: ApplyDelta = %v (%d hosts), want *addrset.BlockError", policy, err, hostsOf(got))
		}
	}
}

// TestWriteDamagedSnapshot pins both writers over a lazy snapshot with
// an unreadable block, under both fault policies. The v1 stream has
// already promised every indexed address in its header, so WriteTo
// fails with the typed block error either way. The file writer follows
// the policy: FailFast fails and leaves the destination untouched;
// Degrade writes the self-consistent file of the intact blocks.
func TestWriteDamagedSnapshot(t *testing.T) {
	eager := fileFixtureSnap(26, 8000)
	path := writeSnapFile(t, eager)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, st.Size()-5, 0x10)

	for _, policy := range []addrset.FaultPolicy{addrset.FailFast, addrset.Degrade} {
		for _, writer := range []string{"WriteTo", "WriteSnapshotFile"} {
			snap, err := OpenSnapshotFile(path)
			if err != nil {
				t.Fatal(err)
			}
			snap.SetFaultPolicy(policy)
			dst := filepath.Join(t.TempDir(), "out.snap")
			const old = "previous contents"
			if err := os.WriteFile(dst, []byte(old), 0o644); err != nil {
				t.Fatal(err)
			}
			if writer == "WriteTo" {
				_, err = snap.WriteTo(io.Discard)
			} else {
				err = WriteSnapshotFile(dst, snap)
			}
			snap.Close()
			var be *addrset.BlockError
			if writer == "WriteSnapshotFile" && policy == addrset.Degrade {
				if err != nil {
					t.Fatalf("%v/%s: %v", policy, writer, err)
				}
				if err := VerifySnapshotFile(dst); err != nil {
					t.Fatalf("%v/%s: written file: %v", policy, writer, err)
				}
				back, err := OpenSnapshotFile(dst)
				if err != nil {
					t.Fatal(err)
				}
				// The flipped byte sits in the last block, a full one.
				if want := eager.Hosts() - addrset.DefaultBlockSize; back.Hosts() != want {
					t.Fatalf("%v/%s: wrote %d hosts, want the %d of the intact blocks", policy, writer, back.Hosts(), want)
				}
				back.Close()
				continue
			}
			if !errors.As(err, &be) {
				t.Fatalf("%v/%s = %v, want *addrset.BlockError", policy, writer, err)
			}
			if got, _ := os.ReadFile(dst); string(got) != old {
				t.Fatalf("%v/%s: failed write changed the destination", policy, writer)
			}
		}
	}
}

// hostsOf is the host count of a possibly nil snapshot, for failure messages.
func hostsOf(s *Snapshot) int {
	if s == nil {
		return 0
	}
	return s.Hosts()
}

// copyV2Fixture copies the checked-in TASSNAP2 fixture — a file the
// pre-TASSNAP3 writer produced for fileFixtureSnap(27, 2000) — to a
// scratch path the test may rewrite.
func copyV2Fixture(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != "TASSNAP2" {
		t.Fatalf("fixture magic %q want TASSNAP2", raw[:8])
	}
	path := filepath.Join(t.TempDir(), "census.snap2")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotFileV2Upgrade pins the TASSNAP2 upgrade path: the load
// paths reject the file naming `tass fsck -repair`, scrub reports it,
// and repair rewrites it as TASSNAP3 with the same addresses, protocol
// and month — after which it opens and verifies.
func TestSnapshotFileV2Upgrade(t *testing.T) {
	want := fileFixtureSnap(27, 2000)
	path := copyV2Fixture(t)

	snap, err := OpenSnapshotFile(path)
	if err == nil {
		snap.Close()
	}
	for name, err := range map[string]error{"open": err, "verify": VerifySnapshotFile(path)} {
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "tass fsck -repair") {
			t.Errorf("%s of a TASSNAP2 file: got %v, want ErrFormat naming tass fsck -repair", name, err)
		}
	}
	scrub, err := ScrubSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if scrub.Clean() || scrub.Format != "TASSNAP2" || scrub.IndexErr != nil ||
		len(scrub.Damage) != 0 || !scrub.PayloadCRCOK || scrub.Hosts != want.Hosts() {
		t.Fatalf("v2 scrub: %+v", scrub)
	}

	rep, err := RepairSnapshotFile(path)
	if err != nil {
		t.Fatalf("upgrading v2: %v", err)
	}
	if !rep.Repaired || rep.RecoveredHosts != want.Hosts() || rep.LostAddrs != 0 || rep.QuarantinePath != "" {
		t.Fatalf("v2 upgrade: %+v", rep)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != "TASSNAP3" {
		t.Fatalf("repair wrote %q, want TASSNAP3", raw[:8])
	}
	if err := VerifySnapshotFile(path); err != nil {
		t.Fatalf("upgraded file fails verify: %v", err)
	}
	snap, err = OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("upgraded file does not open: %v", err)
	}
	defer snap.Close()
	if snap.Protocol != want.Protocol || snap.Month != want.Month {
		t.Fatalf("upgrade changed the header: %q/%d", snap.Protocol, snap.Month)
	}
	if !slices.Equal(snap.Set().AppendTo(nil), want.Addrs) {
		t.Fatal("upgraded file decodes differently")
	}
	if again, err := ScrubSnapshotFile(path); err != nil || !again.Clean() {
		t.Fatalf("upgraded file scrubs dirty: %+v, %v", again, err)
	}

	// Repairing a damaged v2 file also upgrades it to TASSNAP3.
	path = copyV2Fixture(t)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, st.Size()-8, 0x20)
	rep, err = RepairSnapshotFile(path)
	if err != nil {
		t.Fatalf("repairing damaged v2: %v", err)
	}
	if !rep.Repaired || rep.LostAddrs == 0 || rep.QuarantinePath == "" {
		t.Fatalf("damaged v2 repair: %+v", rep)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != "TASSNAP3" {
		t.Fatalf("repair wrote %q, want an upgraded TASSNAP3", raw[:8])
	}
	if err := VerifySnapshotFile(path); err != nil {
		t.Fatalf("repaired v2 fails verify: %v", err)
	}
}

// FuzzSnapshotFileCorruption drives arbitrary mutations of a valid
// snapshot file through the whole degradation surface: open, scrub,
// degraded decode, and repair must never panic — every outcome is an
// error or a report.
func FuzzSnapshotFileCorruption(f *testing.F) {
	seedSnap := fileFixtureSnap(28, 600)
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.snap")
	if err := WriteSnapshotFile(seedPath, seedSnap); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, off := range []int{9, 20, len(raw) / 2, len(raw) - 3} {
		corrupt := append([]byte(nil), raw...)
		corrupt[off] ^= 0x80
		f.Add(corrupt)
	}
	f.Add(raw[:len(raw)/3])
	v2, err := os.ReadFile(filepath.Join("testdata", "v2.snap"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		scrub, err := ScrubSnapshotFile(path)
		if err == nil && scrub.Clean() && scrub.IndexErr == nil {
			// A clean scrub promises a verifiable file.
			if verr := VerifySnapshotFile(path); verr != nil {
				t.Fatalf("scrub clean but verify failed: %v", verr)
			}
		}
		snap, oerr := OpenSnapshotFile(path)
		if oerr == nil {
			snap.SetFaultPolicy(addrset.Degrade)
			_ = snap.Set().AppendTo(nil) // must degrade, never panic
			snap.Close()
		}
		_, _ = RepairSnapshotFile(path) // errors allowed, panics are not
	})
}

// TestVerifyAgreesWithScrub is the differential test between the two
// deep checks: over every single-bit flip of a small TASSNAP3 file of
// each family, the TASSNAP2 fixture and a v1 stream, VerifySnapshotFile
// passes exactly when ScrubSnapshotFile reports the file clean, and
// every rejection wraps ErrFormat.
func TestVerifyAgreesWithScrub(t *testing.T) {
	dir := t.TempDir()
	check := func(name string, data []byte) {
		t.Helper()
		path := filepath.Join(dir, "f.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ScrubSnapshotFile(path)
		if err != nil {
			t.Fatalf("%s: scrub: %v", name, err)
		}
		verr := VerifySnapshotFile(path)
		if (verr == nil) != rep.Clean() {
			t.Fatalf("%s: verify %v, scrub clean %v (%+v)", name, verr, rep.Clean(), rep)
		}
		if verr != nil && !errors.Is(verr, ErrFormat) {
			t.Fatalf("%s: verify error %v does not wrap ErrFormat", name, verr)
		}
	}
	flips := func(name string, raw []byte) {
		t.Helper()
		check(name, raw)
		data := append([]byte(nil), raw...)
		for bit := range 8 * len(raw) {
			data[bit/8] ^= 1 << (bit % 8)
			check(fmt.Sprintf("%s bit %d", name, bit), data)
			data[bit/8] ^= 1 << (bit % 8)
		}
	}
	v4 := filepath.Join(dir, "v4.snap")
	if err := WriteSnapshotFile(v4, fileFixtureSnap(29, 300)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	addrs6 := make([]netaddr.Addr6, 300)
	hi, lo := uint64(0x2001_0db8)<<32, uint64(0)
	for i := range addrs6 {
		if rng.Intn(50) == 0 {
			hi += uint64(rng.Intn(1 << 16))
		}
		lo += 1 + uint64(rng.Intn(1<<20))
		addrs6[i] = netaddr.Addr6{Hi: hi, Lo: lo}
	}
	v6 := filepath.Join(dir, "v6.snap")
	if err := WriteSnapshotFileOf(v6, NewSnapshotOf("https", 4, addrs6)); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ name, path string }{{"v4", v4}, {"v6", v6}} {
		if rep, err := ScrubSnapshotFile(f.path); err != nil || rep.Blocks < 2 {
			t.Fatalf("%s fixture: %v, want several blocks (%+v)", f.name, err, rep)
		}
		raw, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		flips(f.name, raw)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	check("v2 fixture", v2)
	check("v1 stream", encodeSnapshot(t, fileFixtureSnap(29, 300)))
}
