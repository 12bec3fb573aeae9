package coord

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"github.com/tass-scan/tass/internal/atomicfile"
)

// ErrNoState is returned by Store.Load when nothing has been saved yet —
// a fresh coordinator, not an error.
var ErrNoState = errors.New("coord: no saved state")

// Store persists the coordinator's full state blob. Save must be atomic
// and durable: after it returns, a crashed-and-restarted coordinator
// must Load exactly this blob or a newer one, never a torn mixture.
type Store interface {
	Save(data []byte) error
	Load() ([]byte, error)
}

// MemStore keeps state in memory: the store for tests and for
// coordinators whose campaigns are disposable.
type MemStore struct {
	mu   sync.Mutex
	data []byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Save implements Store.
func (m *MemStore) Save(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = bytes.Clone(data)
	return nil
}

// Load implements Store.
func (m *MemStore) Load() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.data == nil {
		return nil, ErrNoState
	}
	return bytes.Clone(m.data), nil
}

// The file store's on-disk layout is a one-line text header followed by
// the raw payload:
//
//	tass-coord-state v1 len=<n> crc32=<hex>\n<payload>
//
// The header pins the format and version, and len+CRC detect every torn
// or bit-flipped file before a byte of campaign state is trusted. The
// write path is atomicfile (temp + fsync + rename), so the usual crash
// outcome is "old state or new state"; the header catches the unusual
// ones (filesystem truncation, partial sector, manual editing).
const (
	fileStoreMagic   = "tass-coord-state"
	fileStoreVersion = 1
)

// FileStore persists the coordinator state to one file.
type FileStore struct {
	path string
}

// NewFileStore builds a file-backed store at path. The file is created
// on first Save.
func NewFileStore(path string) *FileStore { return &FileStore{path: path} }

// Save implements Store: atomic replace with a checksummed header.
func (f *FileStore) Save(data []byte) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s v%d len=%d crc32=%08x\n",
		fileStoreMagic, fileStoreVersion, len(data), crc32.ChecksumIEEE(data))
	buf.Write(data)
	return atomicfile.WriteFile(f.path, buf.Bytes(), 0o644)
}

// Load implements Store: header and checksum verified, torn or corrupt
// files refused with an error naming the mismatch.
func (f *FileStore) Load() ([]byte, error) {
	raw, err := os.ReadFile(f.path)
	if os.IsNotExist(err) {
		return nil, ErrNoState
	}
	if err != nil {
		return nil, fmt.Errorf("coord: loading state: %w", err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("coord: state file %s is empty (torn save?)", f.path)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("coord: state file %s: truncated header", f.path)
	}
	header, payload := string(raw[:nl]), raw[nl+1:]
	var magic string
	var version, length int
	var sum uint32
	if _, err := fmt.Sscanf(header, "%s v%d len=%d crc32=%08x", &magic, &version, &length, &sum); err != nil {
		return nil, fmt.Errorf("coord: state file %s: malformed header %q", f.path, header)
	}
	if magic != fileStoreMagic {
		return nil, fmt.Errorf("coord: state file %s: magic %q is not %q", f.path, magic, fileStoreMagic)
	}
	if version > fileStoreVersion {
		return nil, fmt.Errorf("coord: state file %s: version %d is newer than this binary's %d", f.path, version, fileStoreVersion)
	}
	if len(payload) != length {
		return nil, fmt.Errorf("coord: state file %s: %d payload bytes, header says %d — file is torn, refusing to load", f.path, len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("coord: state file %s: checksum %08x, header says %08x — file is corrupt, refusing to load", f.path, got, sum)
	}
	return payload, nil
}
