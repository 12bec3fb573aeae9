package experiment

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPaperTextGolden pins every experiment's text for SmallConfig(1)
// across commits. The golden-equality tests compare two paths of one
// build, so a kernel change that alters both paths alike passes them;
// this file holds one FNV-64a digest of each Result.Text instead. Run
// with -update to regenerate testdata/paper_seed1.golden after an
// intentional change to an experiment's output.
func TestPaperTextGolden(t *testing.T) {
	w, err := BuildWorld(SmallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAll(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		h := fnv.New64a()
		h.Write([]byte(r.Text))
		fmt.Fprintf(&b, "%s %016x\n", r.ID, h.Sum64())
	}
	got := b.String()
	path := filepath.Join("testdata", "paper_seed1.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("experiment text digests changed (rerun with -update if intended):\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
