package scan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/tass-scan/tass/internal/atomicfile"
)

// Checkpoint is the serialized cursor state of an interrupted scan
// cycle: one consumed-position count per worker shard. Together with the
// scan configuration (N, Seed, Shard/Shards, Workers) it pins down the
// exact set of addresses already visited, so a resumed cycle probes each
// remaining address exactly once and re-probes none. The format is plain
// JSON: small (one integer per worker) and inspectable.
type Checkpoint struct {
	// N is the permutation size (the target partition's address count).
	N uint64 `json:"n"`
	// Seed is the permutation seed.
	Seed int64 `json:"seed"`
	// Shard and Shards identify this instance's slice of the cycle.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Workers is the worker count the cursors were taken under; a resume
	// must use the same count (the sub-shard layout depends on it).
	Workers int `json:"workers"`
	// Consumed[w] is how many cycle positions worker w's shard visited.
	Consumed []uint64 `json:"consumed"`
	// ASProbed carries the per-origin-AS probe counters when the cycle
	// ran with per-AS politeness, so a resumed run enforces the probe
	// budget across the whole cycle, not per run. (JSON encodes the
	// uint32 keys as strings; Go's decoder maps them back.)
	ASProbed map[uint32]uint64 `json:"as_probed,omitempty"`
}

// validate checks that the checkpoint matches the scanner configuration
// it is being resumed under.
func (c *Checkpoint) validate(cfg Config, n uint64) error {
	switch {
	case c.N != n:
		return fmt.Errorf("scan: checkpoint for %d addresses, scanner has %d", c.N, n)
	case c.Seed != cfg.Seed:
		return fmt.Errorf("scan: checkpoint seed %d, scanner seed %d", c.Seed, cfg.Seed)
	case c.Shard != cfg.Shard || c.Shards != cfg.Shards:
		return fmt.Errorf("scan: checkpoint is shard %d/%d, scanner is %d/%d",
			c.Shard, c.Shards, cfg.Shard, cfg.Shards)
	case c.Workers != cfg.Workers || len(c.Consumed) != cfg.Workers:
		return fmt.Errorf("scan: checkpoint has %d worker cursors, scanner has %d workers",
			len(c.Consumed), cfg.Workers)
	}
	return nil
}

// Checkpoint captures the per-shard cursors of the most recent Run. Call
// it after Run returns (typically with a context error; the per-AS
// counts it carries are merged as Run's workers exit) to persist where
// the cycle stopped; hand the result to Resume on a fresh or existing
// scanner with the same configuration to continue. Before any Run it
// returns nil.
func (s *Scanner) Checkpoint() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shards == nil {
		return nil
	}
	cp := &Checkpoint{
		N:        s.cfg.Targets.AddressCount(),
		Seed:     s.cfg.Seed,
		Shard:    s.cfg.Shard,
		Shards:   s.cfg.Shards,
		Workers:  s.cfg.Workers,
		Consumed: make([]uint64, len(s.shards)),
	}
	for i, sh := range s.shards {
		cp.Consumed[i] = sh.Consumed()
	}
	if s.fp != nil {
		cp.ASProbed = s.fp.probedByAS()
	}
	return cp
}

// Resume arms the scanner to continue an interrupted cycle: the next Run
// fast-forwards every worker shard past the checkpointed cursor before
// probing. The checkpoint must match the scanner's configuration
// (validated when Run starts).
func (s *Scanner) Resume(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("scan: nil checkpoint")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resume = cp
	return nil
}

// The checkpoint wire format is a small JSON envelope around the
// checkpoint body: a format marker (a file without one is the
// checksum-less format of older releases, which only `tass fsck
// -repair` still reads), a format version (readers reject
// files from the future instead of resuming from misparsed state), and
// a CRC-32 over the exact body bytes (torn writes and bit flips are
// detected before a single address is skipped or re-probed).
const (
	checkpointFormat  = "tass-checkpoint"
	checkpointVersion = 1
)

type checkpointEnvelope struct {
	Format  string          `json:"format"`
	Version int             `json:"v"`
	CRC     uint32          `json:"crc"`
	Body    json.RawMessage `json:"body"`
}

// WriteCheckpoint serializes a checkpoint: a versioned JSON envelope
// whose body is the checkpoint fields and whose crc field checksums the
// body bytes. ReadCheckpoint refuses anything that does not round-trip.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	body, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("scan: encoding checkpoint: %w", err)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(checkpointEnvelope{
		Format:  checkpointFormat,
		Version: checkpointVersion,
		CRC:     crc32.ChecksumIEEE(body),
		Body:    body,
	})
}

// ReadCheckpoint parses a checkpoint written by WriteCheckpoint,
// verifying the format version and body checksum: truncated, corrupted
// or future-version files are rejected with a clear error instead of
// silently resuming a cycle from garbage cursors. A checksum-less file
// from before the envelope format is rejected with an error naming
// `tass fsck -repair`, which upgrades it.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("scan: reading checkpoint: %w", err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("scan: reading checkpoint: file is empty (torn save?)")
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("scan: reading checkpoint: truncated or corrupt: %w", err)
	}
	if env.Format == "" {
		return nil, fmt.Errorf("scan: reading checkpoint: no %q envelope (a checksum-less checkpoint from an older release?); upgrade it with \"tass fsck -repair FILE\"", checkpointFormat)
	}
	if env.Format != checkpointFormat {
		return nil, fmt.Errorf("scan: reading checkpoint: format %q is not %q", env.Format, checkpointFormat)
	}
	if env.Version > checkpointVersion {
		return nil, fmt.Errorf("scan: reading checkpoint: version %d is newer than this binary's %d — refuse to guess at its layout", env.Version, checkpointVersion)
	}
	if env.Version < 1 {
		return nil, fmt.Errorf("scan: reading checkpoint: invalid version %d", env.Version)
	}
	if sum := crc32.ChecksumIEEE(env.Body); sum != env.CRC {
		return nil, fmt.Errorf("scan: reading checkpoint: checksum mismatch (crc %08x, body %08x) — file is torn or corrupt, not resuming", env.CRC, sum)
	}
	var cp Checkpoint
	if err := json.Unmarshal(env.Body, &cp); err != nil {
		return nil, fmt.Errorf("scan: reading checkpoint: %w", err)
	}
	return &cp, nil
}

// WriteCheckpointFile atomically persists a checkpoint to path: the
// envelope is written to a temporary file in the same directory, synced,
// and renamed over the destination, so an interrupt mid-save never
// destroys the only copy of the cursor.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, cp); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadCheckpointFile loads a checkpoint persisted by WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
