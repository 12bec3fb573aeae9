package scan

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		N:        4096,
		Seed:     42,
		Shard:    1,
		Shards:   2,
		Workers:  3,
		Consumed: []uint64{10, 20, 30},
		ASProbed: map[uint32]uint64{64500: 7},
	}
}

func TestCheckpointEnvelopeRoundTrip(t *testing.T) {
	cp := testCheckpoint()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cp) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, cp)
	}
}

// TestCheckpointLegacyRejected pins the end of the checksum-less
// format's grace period: a cursor file written by the old
// WriteCheckpoint (bare fields, no envelope) no longer loads, and the
// error names the command that upgrades it.
func TestCheckpointLegacyRejected(t *testing.T) {
	legacy, err := json.Marshal(testCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(bytes.NewReader(legacy))
	if err == nil {
		t.Fatalf("legacy checkpoint loaded: %+v", cp)
	}
	if !strings.Contains(err.Error(), "tass fsck -repair") {
		t.Fatalf("error does not name the upgrade command: %v", err)
	}
}

// TestCheckpointCorruptionRefused covers the torn-file matrix: every
// corruption must surface as a load error, never as a silently wrong
// resume cursor.
func TestCheckpointCorruptionRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := []struct {
		name string
		data string
	}{
		{"empty file", ""},
		{"whitespace only", "  \n\t\n"},
		{"torn JSON (truncated mid-envelope)", good[:len(good)/2]},
		{"torn JSON (first byte only)", good[:1]},
		{"wrong CRC (flipped body byte)", flipInBody(t, good)},
		{"wrong format marker", strings.Replace(good, "tass-checkpoint", "mass-checkpoint", 1)},
		{"future version", strings.Replace(good, `"v":1`, `"v":99`, 1)},
		{"invalid version", strings.Replace(good, `"v":1`, `"v":0`, 1)},
		{"garbage", "not json at all"},
		// A corrupted envelope: "format" gone but envelope keys
		// present.
		{"envelope posing as legacy", strings.Replace(good, `"format"`, `"fxrmat"`, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := ReadCheckpoint(strings.NewReader(tc.data))
			if err == nil {
				t.Fatalf("corrupt checkpoint accepted: %+v", cp)
			}
		})
	}
}

// flipInBody flips one digit inside the envelope's body so the payload
// changes but the JSON stays syntactically valid.
func flipInBody(t *testing.T, s string) string {
	t.Helper()
	i := strings.Index(s, `"n":`)
	if i < 0 {
		t.Fatal("no body field found")
	}
	b := []byte(s)
	c := b[i+4]
	if c >= '0' && c <= '8' {
		b[i+4] = c + 1
	} else {
		b[i+4] = '1'
	}
	return string(b)
}

// TestCheckpointFileAtomicSave proves the file helper round-trips and
// that a failed save (injected or environmental) leaves the previous
// cursor intact — the anti-os.Create property.
func TestCheckpointFileAtomicSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cursor.json")
	cp := testCheckpoint()
	if err := WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cp) {
		t.Fatalf("file round trip mismatch: %+v vs %+v", back, cp)
	}

	// A save that cannot complete (unwritable directory) must not
	// destroy the existing cursor.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	cp2 := testCheckpoint()
	cp2.Consumed = []uint64{99, 99, 99}
	if err := WriteCheckpointFile(path, cp2); err == nil {
		if os.Getuid() == 0 {
			t.Skip("running as root: read-only directory not enforced")
		}
		t.Fatal("save into read-only directory succeeded")
	}
	back, err = ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("previous cursor destroyed by failed save: %v", err)
	}
	if !reflect.DeepEqual(back, cp) {
		t.Fatalf("previous cursor changed by failed save: %+v", back)
	}
}

// TestCheckpointFileTornOnDisk corrupts the file on disk (the crash the
// atomic rename is supposed to prevent at write time, simulated at rest)
// and checks the loader refuses it.
func TestCheckpointFileTornOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor.json")
	if err := WriteCheckpointFile(path, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if cp, err := ReadCheckpointFile(path); err == nil {
		t.Fatalf("torn on-disk checkpoint accepted: %+v", cp)
	}
}
