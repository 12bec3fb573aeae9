// Package mmapfile opens a file for random read access, memory-mapping
// it read-only where the platform allows and degrading to pread
// elsewhere. It is the bottom of the lazy census stack: the TASSNAP3
// codec maps a snapshot file once and serves block extents from the
// mapping, so opening a multi-gigabyte census costs page-table setup,
// not a read of the payload — the kernel pages blocks in as the set
// faults them and pages them out again under memory pressure.
//
// Callers must treat returned byte slices as immutable, and must not
// modify the underlying file while a File is open.
package mmapfile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// File is a read-only file with random extent access. It is safe for
// concurrent use.
type File struct {
	f      *os.File
	ra     io.ReaderAt // pread source; f unless a test swapped it
	size   int64
	data   []byte // whole-file mapping; nil when running on pread
	mapped bool
}

// DisableMmap forces every subsequent Open onto the pread fallback.
// The lazy census stack behaves identically either way (just without
// zero-copy extents); the knob exists for tests exercising the
// fallback and for diagnosing platform mmap issues. Set it before
// opening files — it is not synchronized with concurrent Opens.
var DisableMmap = false

// Open opens path read-only. On platforms with mmap the whole file is
// mapped; anywhere else (or if the mapping fails, e.g. on exotic
// filesystems) the File transparently serves extents with pread.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	m := &File{f: f, ra: f, size: st.Size()}
	if m.size > 0 && !DisableMmap {
		if data, err := mmap(f, int(m.size)); err == nil {
			m.data = data
			m.mapped = true
		}
	}
	return m, nil
}

// Mapped reports whether extents are served from a memory mapping
// (false means the pread fallback is active).
func (m *File) Mapped() bool { return m.mapped }

// Size returns the file size at open time.
func (m *File) Size() int64 { return m.size }

// BytesAt returns the file bytes [off, off+n). Mapped files return a
// zero-copy subslice of the mapping; the fallback preads into a fresh
// slice. Out-of-range extents and fallback read failures return an
// error; transient pread faults (EINTR, a short read racing a signal)
// are retried once before the error is surfaced, so a single
// interrupted syscall never poisons a long counting pass.
func (m *File) BytesAt(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || int64(off)+int64(n) > m.size {
		return nil, fmt.Errorf("mmapfile: extent [%d,%d) outside file of %d bytes", off, off+n, m.size)
	}
	if m.mapped {
		return m.data[off : off+n], nil
	}
	buf := make([]byte, n)
	read, err := m.ra.ReadAt(buf, int64(off))
	if err != nil && retryableRead(read, n, err) {
		read, err = m.ra.ReadAt(buf, int64(off))
	}
	if err != nil {
		return nil, fmt.Errorf("mmapfile: pread %d bytes at %d: %w", n, off, err)
	}
	if read < n {
		return nil, fmt.Errorf("mmapfile: pread %d bytes at %d: short read (%d)", n, off, read)
	}
	return buf, nil
}

// retryableRead reports whether a failed pread is worth one retry: an
// interrupted syscall, or a short read that still signalled progress
// (io.ErrUnexpectedEOF from a racing truncate-and-regrow, a driver
// returning early). A zero-progress io.EOF is not retried — the file
// really ended.
func retryableRead(read, want int, err error) bool {
	if errors.Is(err, syscall.EINTR) {
		return true
	}
	return read > 0 && read < want && (errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF))
}

// Close unmaps and closes the file. Slices previously returned by
// BytesAt on a mapped File become invalid.
func (m *File) Close() error {
	var err error
	if m.mapped {
		err = munmap(m.data)
		m.data = nil
		m.mapped = false
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}
