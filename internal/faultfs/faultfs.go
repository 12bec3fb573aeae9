// Package faultfs is the deterministic I/O fault-injection harness
// behind the storage-integrity tests: scripted wrappers for the three
// seams where the scanner touches disk — addrset.BlockSource (lazy
// census payload reads), io.ReaderAt (the mmapfile pread fallback) and
// coord.Store (coordinator state) — plus in-place file mutators (bit
// flips, truncation) and a seeded bit-offset sweep for chaos suites.
//
// Every fault is scripted by call index or byte offset, never drawn
// from an unseeded source, so a failing chaos case replays exactly: the
// suite name plus the seed pins down the whole fault sequence.
package faultfs

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"

	"github.com/tass-scan/tass/internal/addrset"
)

// StateStore is the coordinator persistence seam (structurally identical
// to coord.Store, declared here so this package sits below the whole
// stack — mmapfile's own tests import it, and importing coord would close
// an import cycle through census).
type StateStore interface {
	Save(data []byte) error
	Load() ([]byte, error)
}

// ReadFault scripts one faulty ReadAt call: the error to return and,
// when Short is positive, how many bytes to deliver before failing
// (a short read with progress — the shape a signal-interrupted pread
// or a mid-truncation race produces).
type ReadFault struct {
	Err   error
	Short int
}

// FlakyReaderAt wraps an io.ReaderAt with per-call scripted faults,
// keyed by 1-based ReadAt call number. Calls without a scripted fault
// pass through. It is how the mmapfile pread fallback's retry path is
// exercised without a real flaky disk.
type FlakyReaderAt struct {
	R io.ReaderAt
	// Faults maps the 1-based ReadAt call number to its fault.
	Faults map[int]ReadFault

	mu    sync.Mutex
	calls int
}

// Calls returns how many ReadAt calls the wrapper has seen.
func (f *FlakyReaderAt) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// ReadAt implements io.ReaderAt.
func (f *FlakyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.calls++
	fault, ok := f.Faults[f.calls]
	f.mu.Unlock()
	if !ok {
		return f.R.ReadAt(p, off)
	}
	if fault.Short > 0 {
		n := fault.Short
		if n > len(p) {
			n = len(p)
		}
		read, err := f.R.ReadAt(p[:n], off)
		if err != nil {
			return read, err
		}
		return read, fault.Err
	}
	return 0, fault.Err
}

// FlakySource wraps an addrset.BlockSource with per-call scripted
// errors, keyed by 1-based Bytes call number. Calls without a scripted
// fault pass through. Transient faults (an entry that fails once) test
// that the lazy block cache never caches a failure.
type FlakySource struct {
	Src addrset.BlockSource
	// Faults maps the 1-based Bytes call number to its error.
	Faults map[int]error

	mu    sync.Mutex
	calls int
}

// Calls returns how many Bytes calls the wrapper has seen.
func (s *FlakySource) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Bytes implements addrset.BlockSource.
func (s *FlakySource) Bytes(off, n int) ([]byte, error) {
	s.mu.Lock()
	s.calls++
	err, ok := s.Faults[s.calls]
	s.mu.Unlock()
	if ok {
		return nil, err
	}
	return s.Src.Bytes(off, n)
}

// Size implements addrset.BlockSource.
func (s *FlakySource) Size() int { return s.Src.Size() }

// CorruptSource serves its inner source's bytes with persistent,
// deterministic damage: every read whose extent covers payload offset
// Off sees bit Bit of that byte flipped. The damaged copy is fresh on
// every read — the inner source's storage is never mutated — so the
// corruption behaves like a rotted disk sector: stable across reads,
// invisible to extents that do not cover it.
type CorruptSource struct {
	Src addrset.BlockSource
	Off int   // payload offset of the damaged byte
	Bit uint8 // 0-7: which bit of the byte is flipped
}

// Bytes implements addrset.BlockSource.
func (s *CorruptSource) Bytes(off, n int) ([]byte, error) {
	b, err := s.Src.Bytes(off, n)
	if err != nil {
		return nil, err
	}
	if s.Off < off || s.Off >= off+n {
		return b, nil
	}
	damaged := make([]byte, len(b))
	copy(damaged, b)
	damaged[s.Off-off] ^= 1 << (s.Bit & 7)
	return damaged, nil
}

// Size implements addrset.BlockSource.
func (s *CorruptSource) Size() int { return s.Src.Size() }

// Store wraps a coordinator state store with scripted faults, keyed by 1-based
// Save/Load call numbers. A TornSaves entry simulates the aftermath of
// a torn rename: the inner store persists only the first k bytes of
// the blob and the Save still reports success — the failure mode an
// fsynced-but-buggy filesystem hands a crashed coordinator.
type Store struct {
	Inner StateStore
	// SaveFaults and LoadFaults map 1-based call numbers to the error
	// that call returns (the inner store is not touched).
	SaveFaults map[int]error
	LoadFaults map[int]error
	// TornSaves maps 1-based Save call numbers to the byte count
	// actually persisted; the call itself reports success.
	TornSaves map[int]int

	mu           sync.Mutex
	saves, loads int
}

// Saves returns how many Save calls the wrapper has seen.
func (s *Store) Saves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves
}

// Loads returns how many Load calls the wrapper has seen.
func (s *Store) Loads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads
}

// Save implements coord.Store.
func (s *Store) Save(data []byte) error {
	s.mu.Lock()
	s.saves++
	call := s.saves
	s.mu.Unlock()
	if err, ok := s.SaveFaults[call]; ok {
		return err
	}
	if k, ok := s.TornSaves[call]; ok {
		if k > len(data) {
			k = len(data)
		}
		return s.Inner.Save(data[:k])
	}
	return s.Inner.Save(data)
}

// Load implements coord.Store.
func (s *Store) Load() ([]byte, error) {
	s.mu.Lock()
	s.loads++
	call := s.loads
	s.mu.Unlock()
	if err, ok := s.LoadFaults[call]; ok {
		return nil, err
	}
	return s.Inner.Load()
}

// FlipBit flips one bit of the file at path in place: bit is the
// absolute bit offset (byte bit/8, bit bit%8, LSB first). Flipping the
// same bit twice restores the file — the property the corruption
// sweeps use to reuse one file across thousands of cases.
func FlipBit(path string, bit int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], bit/8); err != nil {
		return fmt.Errorf("faultfs: flip bit %d: %w", bit, err)
	}
	b[0] ^= 1 << uint(bit%8)
	if _, err := f.WriteAt(b[:], bit/8); err != nil {
		return fmt.Errorf("faultfs: flip bit %d: %w", bit, err)
	}
	return nil
}

// SweepBits returns the deterministic bit offsets a corruption sweep
// over an nbytes-long file should flip: every bit when the file holds
// at most max of them, otherwise max offsets drawn without repetition
// from a PRNG seeded with seed — so a failing case is replayed by its
// (seed, index) alone, and small fixtures still get exhaustive
// coverage.
func SweepBits(nbytes int64, max int, seed int64) []int64 {
	total := nbytes * 8
	if total <= int64(max) {
		out := make([]int64, total)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, max)
	out := make([]int64, 0, max)
	for len(out) < max {
		bit := rng.Int63n(total)
		if seen[bit] {
			continue
		}
		seen[bit] = true
		out = append(out, bit)
	}
	return out
}
