package mmapfile

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func writeTemp(t *testing.T, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "payload")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testExtents(t *testing.T, m *File, content []byte) {
	t.Helper()
	if m.Size() != int64(len(content)) {
		t.Fatalf("Size = %d want %d", m.Size(), len(content))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		off := rng.Intn(len(content) + 1)
		n := rng.Intn(len(content) - off + 1)
		if got, err := m.BytesAt(off, n); err != nil || !bytes.Equal(got, content[off:off+n]) {
			t.Fatalf("BytesAt(%d, %d) mismatch (err %v)", off, n, err)
		}
	}
	// Concurrent readers over overlapping extents.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				off := rng.Intn(len(content))
				n := rng.Intn(len(content) - off)
				if got, err := m.BytesAt(off, n); err != nil || !bytes.Equal(got, content[off:off+n]) {
					t.Errorf("concurrent BytesAt(%d, %d) mismatch (err %v)", off, n, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestOpenMapped(t *testing.T) {
	content := make([]byte, 1<<16)
	rand.New(rand.NewSource(1)).Read(content)
	m, err := Open(writeTemp(t, content))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	testExtents(t, m, content)
}

func TestOpenFallback(t *testing.T) {
	DisableMmap = true
	defer func() { DisableMmap = false }()
	content := make([]byte, 1<<14)
	rand.New(rand.NewSource(2)).Read(content)
	m, err := Open(writeTemp(t, content))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Mapped() {
		t.Fatal("fallback File reports Mapped")
	}
	testExtents(t, m, content)
}

func TestOpenEmpty(t *testing.T) {
	m, err := Open(writeTemp(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Size() != 0 {
		t.Fatalf("Size = %d", m.Size())
	}
	if got, err := m.BytesAt(0, 0); err != nil || len(got) != 0 {
		t.Fatalf("BytesAt(0,0) returned %d bytes (err %v)", len(got), err)
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("opening a missing file succeeded")
	}
}

func TestBytesOutOfRange(t *testing.T) {
	m, err := Open(writeTemp(t, []byte("abc")))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, c := range [][2]int{{0, 4}, {3, 1}, {-1, 1}, {1, -1}} {
		if b, err := m.BytesAt(c[0], c[1]); err == nil {
			t.Errorf("BytesAt(%d, %d) = %q, want an error", c[0], c[1], b)
		}
	}
}

func TestCloseInvalidates(t *testing.T) {
	m, err := Open(writeTemp(t, []byte("abcdef")))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err == nil {
		t.Log("double Close did not error (ok on some platforms)")
	}
}
