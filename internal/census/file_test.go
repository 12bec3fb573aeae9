package census

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/tass-scan/tass/internal/netaddr"
	"github.com/tass-scan/tass/internal/rib"
)

// fileFixtureSnap builds a duplicate-free snapshot with census-shaped
// gaps (mostly small deltas, occasional large jumps).
func fileFixtureSnap(seed int64, hosts int) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]netaddr.Addr, 0, hosts)
	v := uint32(rng.Intn(1 << 16))
	for len(addrs) < hosts {
		if rng.Intn(100) == 0 {
			v += uint32(rng.Intn(1 << 22))
		}
		v += 1 + uint32(rng.Intn(200))
		addrs = append(addrs, netaddr.Addr(v))
	}
	return NewSnapshot("https", 4, addrs)
}

func writeSnapFile(t *testing.T, s *Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "census.snap2")
	if err := WriteSnapshotFile(path, s); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	return path
}

// TestWriteSnapshotFileKeepsSiblings: a write goes through a temp file
// of its own, so a file that happens to carry the destination's name
// plus ".tmp" survives it, and the directory holds only the two files
// afterwards.
func TestWriteSnapshotFileKeepsSiblings(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.snap")
	sibling := path + ".tmp"
	if err := os.WriteFile(sibling, []byte("not mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFile(path, fileFixtureSnap(2, 500)); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	if got, err := os.ReadFile(sibling); err != nil || string(got) != "not mine" {
		t.Fatalf("sibling %s after the write: %q, %v", sibling, got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("directory holds %d entries after the write, want the snapshot and the sibling", len(entries))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Errorf("snapshot mode %v, want 0644", perm)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	eager := fileFixtureSnap(1, 20000)
	path := writeSnapFile(t, eager)

	lazy, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	defer lazy.Close()

	if !lazy.Lazy() || lazy.Addrs != nil {
		t.Fatal("opened snapshot is not lazy")
	}
	if lazy.Protocol != eager.Protocol || lazy.Month != eager.Month {
		t.Fatalf("header changed: %q/%d", lazy.Protocol, lazy.Month)
	}
	if lazy.Hosts() != eager.Hosts() {
		t.Fatalf("Hosts = %d want %d", lazy.Hosts(), eager.Hosts())
	}
	if got := lazy.Set().AppendTo(nil); !slices.Equal(got, eager.Addrs) {
		t.Fatal("lazy set decodes to different addresses")
	}
	// The v1 serialization of the lazy snapshot must be byte-identical
	// to the eager one's.
	if !bytes.Equal(encodeSnapshot(t, lazy), encodeSnapshot(t, eager)) {
		t.Fatal("lazy WriteTo bytes differ from eager")
	}
	// Materialize recovers the slice exactly.
	if !slices.Equal(lazy.Materialize().Addrs, eager.Addrs) {
		t.Fatal("Materialize differs")
	}
}

// TestSnapshotFileV1Rejected pins that a v1 stream is interchange data,
// not a file the load paths open: open and verify reject it with an
// ErrFormat error naming the conversion command.
func TestSnapshotFileV1Rejected(t *testing.T) {
	eager := fileFixtureSnap(2, 3000)
	path := filepath.Join(t.TempDir(), "census.v1")
	if err := os.WriteFile(path, encodeSnapshot(t, eager), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshotFile(path)
	if err == nil {
		snap.Close()
	}
	for name, err := range map[string]error{"open": err, "verify": VerifySnapshotFile(path)} {
		if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "tass convert -in") {
			t.Errorf("%s of a v1 stream: got %v, want ErrFormat naming tass convert", name, err)
		}
	}
	if _, err := OpenSnapshotFileOf[netaddr.Addr6](path, 0); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "tass convert -in") {
		t.Errorf("IPv6 open of an IPv4 v1 stream: got %v", err)
	}
}

// TestSnapshotFileApplyDeltaRoundTrip is the acceptance criterion:
// TASSNAP2 round-trips ApplyDelta results — both writing a snapshot
// built by a delta and applying a delta to an opened lazy one, which
// yields an eager snapshot that outlives the file.
func TestSnapshotFileApplyDeltaRoundTrip(t *testing.T) {
	base := fileFixtureSnap(3, 10000)
	next := fileFixtureSnap(33, 10000)
	next.Protocol, next.Month = base.Protocol, base.Month+1
	d := base.Diff(next)

	mutated, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	path := writeSnapFile(t, mutated)
	if err := VerifySnapshotFile(path); err != nil {
		t.Fatalf("VerifySnapshotFile: %v", err)
	}
	back, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !slices.Equal(back.Set().AppendTo(nil), next.Addrs) {
		t.Fatal("mutated snapshot round-trip differs")
	}

	// Apply a delta to the lazy snapshot itself: the result must equal
	// the eager path's, be eager, and still read after the file closes.
	d2 := next.Diff(base)
	d2.FromMonth, d2.ToMonth = back.Month, back.Month+1
	lazyMutated, err := ApplyDelta(back, d2)
	if err != nil {
		t.Fatalf("ApplyDelta(lazy): %v", err)
	}
	eagerMutated, err := ApplyDelta(next, d2)
	if err != nil {
		t.Fatalf("ApplyDelta(eager): %v", err)
	}
	if lazyMutated.Protocol != eagerMutated.Protocol || lazyMutated.Month != eagerMutated.Month ||
		!slices.Equal(lazyMutated.Addrs, eagerMutated.Addrs) {
		t.Fatal("delta over lazy snapshot differs from the eager path")
	}
	if lazyMutated.Lazy() {
		t.Fatal("delta over lazy snapshot stayed lazy")
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(lazyMutated.Set().AppendTo(nil), base.Addrs) {
		t.Fatal("delta result over a closed file differs")
	}
	path2 := filepath.Join(t.TempDir(), "mutated.snap2")
	if err := WriteSnapshotFileOf(path2, lazyMutated); err != nil {
		t.Fatal(err)
	}
	back2, err := OpenSnapshotFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer back2.Close()
	if !slices.Equal(back2.Set().AppendTo(nil), base.Addrs) {
		t.Fatal("lazy-mutated snapshot round-trip differs")
	}
}

func TestLazySnapshotCounting(t *testing.T) {
	eager := fileFixtureSnap(4, 30000)
	path := writeSnapFile(t, eager)
	lazy, err := OpenSnapshotFileOf[netaddr.Addr](path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()

	// A partition with gaps: every other /20 across the populated span.
	var pfx []netaddr.Prefix
	last := eager.Addrs[len(eager.Addrs)-1]
	for base := uint32(0); netaddr.Addr(base) < last; base += 2 << 12 {
		pfx = append(pfx, netaddr.MustPrefixFrom(netaddr.Addr(base), 20))
	}
	p, err := rib.NewPartition(pfx)
	if err != nil {
		t.Fatal(err)
	}

	wantCounts, wantOutside := p.CountAddrs(eager.Addrs)
	for _, workers := range []int{1, 2, 8} {
		gotCounts, gotOutside := lazy.CountByPrefixSharded(p, workers)
		if gotOutside != wantOutside || !slices.Equal(gotCounts, wantCounts) {
			t.Fatalf("workers=%d: sharded lazy counts differ", workers)
		}
	}
	c1, o1 := lazy.CountByPrefix(p)
	if o1 != wantOutside || !slices.Equal(c1, wantCounts) {
		t.Fatal("lazy CountByPrefix differs")
	}
	if got, want := lazy.CountIn(p), eager.CountIn(p); got != want {
		t.Fatalf("lazy CountIn = %d want %d", got, want)
	}
	if got, want := lazy.IntersectWith(eager), eager.Hosts(); got != want {
		t.Fatalf("lazy IntersectWith = %d want %d", got, want)
	}
	cache := NewCountCache()
	cc, co := cache.Counts(lazy, p, 4)
	if co != wantOutside || !slices.Equal(cc, wantCounts) {
		t.Fatal("CountCache over lazy snapshot differs")
	}
}

// TestConvertSnapshotFile streams a v1 snapshot into the indexed format
// and checks the result is byte-identical to writing the decoded
// snapshot directly.
func TestConvertSnapshotFile(t *testing.T) {
	eager := fileFixtureSnap(8, 15000)
	v1 := encodeSnapshot(t, eager)

	dir := t.TempDir()
	converted := filepath.Join(dir, "converted.snap2")
	if err := ConvertSnapshotFile[netaddr.Addr](bytes.NewReader(v1), converted); err != nil {
		t.Fatalf("ConvertSnapshotFile: %v", err)
	}
	direct := writeSnapFile(t, eager)

	got, err := os.ReadFile(converted)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("converted file differs from directly written file")
	}
	if err := VerifySnapshotFile(converted); err != nil {
		t.Fatal(err)
	}
	// Garbage input is rejected with an error.
	if err := ConvertSnapshotFile[netaddr.Addr](bytes.NewReader([]byte("nope")), filepath.Join(dir, "bad.snap2")); err == nil {
		t.Fatal("garbage v1 stream converted")
	}
}

func TestVerifySnapshotFileDetectsCorruption(t *testing.T) {
	eager := fileFixtureSnap(5, 5000)
	path := writeSnapFile(t, eager)
	if err := VerifySnapshotFile(path); err != nil {
		t.Fatalf("pristine file failed verify: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte (near the end — safely inside the payload).
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-10] ^= 0x40
	badPath := filepath.Join(t.TempDir(), "bad.snap2")
	if err := os.WriteFile(badPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshotFile(badPath); err == nil {
		t.Fatal("payload corruption passed verify")
	}
	// The lazy open itself must still succeed — the index is intact and
	// open never reads the payload.
	snap, err := OpenSnapshotFile(badPath)
	if err != nil {
		t.Fatalf("open with corrupt payload: %v", err)
	}
	snap.Close()

	// Flip one index byte: open must fail on the index CRC.
	corrupt = append([]byte(nil), raw...)
	corrupt[12] ^= 0x01
	if err := os.WriteFile(badPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshotFile(badPath); err == nil {
		t.Fatal("index corruption passed open")
	}
}

func TestOpenSnapshotFileTruncated(t *testing.T) {
	eager := fileFixtureSnap(6, 2000)
	path := writeSnapFile(t, eager)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := filepath.Join(t.TempDir(), "cut.snap2")
	for _, cut := range []int{0, 1, 7, 8, 9, 15, 40, len(raw) / 2, len(raw) - 1} {
		if cut > len(raw) {
			continue
		}
		if err := os.WriteFile(cutPath, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if snap, err := OpenSnapshotFile(cutPath); err == nil {
			snap.Close()
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestSnapshotFileEmpty(t *testing.T) {
	path := writeSnapFile(t, NewSnapshot("none", 0, nil))
	snap, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Hosts() != 0 {
		t.Fatalf("Hosts = %d", snap.Hosts())
	}
	if err := VerifySnapshotFile(path); err != nil {
		t.Fatal(err)
	}
}

// FuzzSnapshotFileIndex feeds arbitrary bytes to the v2 open path: any
// input must either be rejected with an error or produce a snapshot
// whose set invariants hold — never a panic at open time and never an
// index-sized pathological allocation.
func FuzzSnapshotFileIndex(f *testing.F) {
	seedSnap := fileFixtureSnap(7, 500)
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.snap2")
	if err := WriteSnapshotFile(seedPath, seedSnap); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:9])
	f.Add(raw[:len(raw)/2])
	f.Add([]byte("TASSNAP2"))
	corrupt := append([]byte(nil), raw...)
	corrupt[10] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.snap2")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		snap, err := OpenSnapshotFile(path)
		if err != nil {
			return
		}
		defer snap.Close()
		// Index accepted: the deep check may still reject the payload,
		// but must do so with an error, not a decode panic.
		_ = VerifySnapshotFile(path)
	})
}
