package census_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/fsck"
	"github.com/tass-scan/tass/internal/netaddr"
)

// TestVerifySnapshotFileV1 pins how the snapshot tooling treats a v1
// stream: valid interchange data in a format no load path opens.
// VerifySnapshotFile rejects it naming `tass convert -in`, and fsck
// reports exactly that as its one finding — Check and Repair both leave
// the file byte-identical, never moving it aside or rewriting it.
func TestVerifySnapshotFileV1(t *testing.T) {
	addrs := make([]netaddr.Addr, 2000)
	for i := range addrs {
		addrs[i] = netaddr.Addr(1<<24 + 37*i)
	}
	var buf bytes.Buffer
	if _, err := census.NewSnapshot("https", 4, addrs).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	path := filepath.Join(t.TempDir(), "census.v1")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := census.VerifySnapshotFile(path); !errors.Is(err, census.ErrFormat) || !strings.Contains(err.Error(), "tass convert -in") {
		t.Fatalf("verify of a v1 stream: got %v, want ErrFormat naming tass convert", err)
	}
	for name, run := range map[string]func(string) (*fsck.Result, error){"check": fsck.Check, "repair": fsck.Repair} {
		res, err := run(path)
		if err != nil {
			t.Fatalf("fsck %s: %v", name, err)
		}
		if res.Clean || res.Repaired || res.QuarantinePath != "" || len(res.Findings) != 1 ||
			!strings.Contains(res.Findings[0], "tass convert -in") {
			t.Fatalf("fsck %s of a v1 stream: %+v", name, res)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("fsck %s moved the v1 stream: %v", name, err)
		}
		if !bytes.Equal(after, raw) {
			t.Fatalf("fsck %s rewrote the v1 stream", name)
		}
	}
}
