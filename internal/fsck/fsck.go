// Package fsck verifies and repairs the scanner's on-disk artifacts:
// census snapshot files, scan checkpoint files, and coordinator state
// files. It is the library behind `tass fsck` — Check is the read-only
// scrub, Repair additionally salvages what it can and quarantines what
// it cannot, never deleting damaged bytes. It is also the one upgrade
// path for the older formats the load paths reject: a TASSNAP2 snapshot
// and a checksum-less checkpoint are findings that Repair rewrites in
// the current format.
//
// Repair semantics by kind:
//
//   - Snapshot (TASSNAP3, or TASSNAP2 to upgrade): intact blocks are
//     re-derived into a fresh TASSNAP3 file; damaged blocks' raw bytes
//     go to a .quarantine sidecar. A file whose index itself is damaged
//     cannot be repaired in place and is moved aside whole. A v1 stream
//     is valid interchange data: it is reported with its conversion
//     command (`tass convert -in`) and never moved or rewritten.
//   - Checkpoint: a valid checksum-less file from an older release is
//     upgraded to the enveloped format; a corrupt file is moved aside
//     whole (resume state cannot be partially salvaged — a wrong cursor
//     re-probes or skips addresses).
//   - Coordinator state: a corrupt file is moved aside whole, so a
//     restarted coordinator starts a fresh campaign instead of
//     refusing to boot.
package fsck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"github.com/tass-scan/tass/internal/census"
	"github.com/tass-scan/tass/internal/coord"
	"github.com/tass-scan/tass/internal/scan"
)

// Kind is the sniffed artifact type of a file.
type Kind string

const (
	KindSnapshot   Kind = "snapshot"
	KindCheckpoint Kind = "checkpoint"
	KindCoordState Kind = "coord-state"
	KindUnknown    Kind = "unknown"
)

// Result is the outcome of one Check or Repair over one file.
type Result struct {
	Path string
	Kind Kind

	// Clean reports that no damage (and no deprecated format) was
	// found; Findings lists what was, one human-readable line each.
	Clean    bool
	Findings []string

	// NeedsConversion marks a v1 snapshot stream: interchange data, not
	// damage, and nothing Repair touches — `tass convert -in FILE`
	// writes it as TASSNAP3 (and validates it on the way). Clean is
	// false for such a file.
	NeedsConversion bool

	// Repair outcome (Repair only).
	Repaired       bool
	QuarantinePath string
	// RecoveredHosts and LostAddrs describe a snapshot repair: the
	// addresses carried into the fresh file vs. lost with quarantined
	// blocks.
	RecoveredHosts int
	LostAddrs      int
}

// Sniff identifies what kind of artifact the file at path holds by its
// leading bytes: a TASSNAP/TASSCNS magic, the coord state header, or a
// JSON object shaped like a (legacy or enveloped) checkpoint.
func Sniff(path string) (Kind, error) {
	f, err := os.Open(path)
	if err != nil {
		return KindUnknown, err
	}
	defer f.Close()
	head := make([]byte, 64)
	n, _ := f.Read(head)
	head = head[:n]
	switch {
	case bytes.HasPrefix(head, []byte("TASSNAP2")),
		bytes.HasPrefix(head, []byte("TASSNAP3")),
		bytes.HasPrefix(head, []byte("TASSCNS\x01")),
		bytes.HasPrefix(head, []byte("TASSCN6\x01")):
		return KindSnapshot, nil
	case bytes.HasPrefix(head, []byte("tass-coord-state ")):
		return KindCoordState, nil
	}
	if len(bytes.TrimSpace(head)) > 0 && bytes.TrimSpace(head)[0] == '{' {
		// A JSON object: enveloped checkpoints carry "format", legacy
		// ones the checkpoint body fields. Either way it is checkpoint
		// shaped — Check decides whether it parses.
		return KindCheckpoint, nil
	}
	return KindUnknown, nil
}

// Check scrubs the file at path read-only, reporting every finding.
// The error return is reserved for the environment (file unreadable);
// damage is reported in the Result, not as an error.
func Check(path string) (*Result, error) {
	return run(path, false)
}

// Repair scrubs the file at path and fixes what Check would report:
// see the package comment for the per-kind semantics. The Result
// records what was salvaged and where damaged bytes were quarantined.
func Repair(path string) (*Result, error) {
	return run(path, true)
}

func run(path string, repair bool) (*Result, error) {
	kind, err := Sniff(path)
	if err != nil {
		return nil, err
	}
	res := &Result{Path: path, Kind: kind}
	switch kind {
	case KindSnapshot:
		err = runSnapshot(res, repair)
	case KindCheckpoint:
		err = runCheckpoint(res, repair)
	case KindCoordState:
		err = runCoordState(res, repair)
	default:
		res.Findings = append(res.Findings, "not a recognized tass artifact (snapshot, checkpoint, or coordinator state)")
		// Under repair, quarantine it: fsck is handed paths that are
		// supposed to be tass artifacts, so an unrecognizable file is a
		// header so damaged even the magic is gone — moving it aside
		// unblocks whatever refused to load it, destroying nothing.
		if repair {
			qpath, err := moveAside(path)
			if err != nil {
				return res, err
			}
			res.QuarantinePath = qpath
			res.Repaired = true
			res.Findings = append(res.Findings, "file moved aside whole (unrecognizable header)")
		}
	}
	if err != nil {
		return res, err
	}
	res.Clean = len(res.Findings) == 0
	return res, nil
}

func runSnapshot(res *Result, repair bool) error {
	scrub, err := census.ScrubSnapshotFile(res.Path)
	if err != nil {
		return err
	}
	res.RecoveredHosts = scrub.Hosts
	if scrub.Format == "TASSNAP1" {
		res.NeedsConversion = true
		res.Findings = append(res.Findings, scrub.IndexErr.Error())
		return nil
	}
	if scrub.IndexErr != nil {
		res.Findings = append(res.Findings, fmt.Sprintf("index unusable: %v", scrub.IndexErr))
		if repair {
			qpath, err := moveAside(res.Path)
			if err != nil {
				return err
			}
			res.QuarantinePath = qpath
			res.Repaired = true
			res.Findings = append(res.Findings, "file moved aside whole (no trusted directory to localize damage with)")
		}
		return nil
	}
	if scrub.Format == "TASSNAP2" {
		res.Findings = append(res.Findings, "TASSNAP2 format (no per-block CRCs); -repair rewrites it as TASSNAP3")
	}
	if !scrub.PayloadCRCOK {
		res.Findings = append(res.Findings, "payload CRC mismatch")
	}
	for _, d := range scrub.Damage {
		res.Findings = append(res.Findings, fmt.Sprintf("block %d (bytes [%d,%d), %d addresses): %v", d.Block, d.Off, d.Off+d.Len, d.Lost, d.Err))
	}
	if len(res.Findings) == 0 || !repair {
		return nil
	}
	rep, err := census.RepairSnapshotFile(res.Path)
	if err != nil {
		return err
	}
	res.Repaired = rep.Repaired
	res.QuarantinePath = rep.QuarantinePath
	res.RecoveredHosts = rep.RecoveredHosts
	res.LostAddrs = rep.LostAddrs
	return nil
}

func runCheckpoint(res *Result, repair bool) error {
	data, err := os.ReadFile(res.Path)
	if err != nil {
		return err
	}
	_, readErr := scan.ReadCheckpoint(bytes.NewReader(data))
	if readErr == nil {
		return nil
	}
	// The checksum-less format of older releases: one JSON object with
	// the checkpoint fields at top level. Decode strictly — a corrupted
	// envelope (stray "crc"/"body" keys) must not pass for one.
	var legacy scan.Checkpoint
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if json.Valid(data) && dec.Decode(&legacy) == nil {
		res.Findings = append(res.Findings, "legacy checksum-less format (corruption undetectable)")
		if repair {
			if err := scan.WriteCheckpointFile(res.Path, &legacy); err != nil {
				return err
			}
			res.Repaired = true
			res.Findings = append(res.Findings, "upgraded to the enveloped format")
		}
		return nil
	}
	res.Findings = append(res.Findings, fmt.Sprintf("unreadable: %v", readErr))
	if repair {
		qpath, err := moveAside(res.Path)
		if err != nil {
			return err
		}
		res.QuarantinePath = qpath
		res.Repaired = true
		res.Findings = append(res.Findings, "file moved aside whole (a wrong cursor would skip or re-probe addresses)")
	}
	return nil
}

func runCoordState(res *Result, repair bool) error {
	_, err := coord.NewFileStore(res.Path).Load()
	if err == nil {
		return nil
	}
	res.Findings = append(res.Findings, fmt.Sprintf("unreadable: %v", err))
	if repair {
		qpath, err := moveAside(res.Path)
		if err != nil {
			return err
		}
		res.QuarantinePath = qpath
		res.Repaired = true
		res.Findings = append(res.Findings, "file moved aside whole (a restarted coordinator starts fresh)")
	}
	return nil
}

// moveAside renames the damaged file to a .quarantine sibling, keeping
// its bytes for forensics while unblocking whatever refused to load it.
func moveAside(path string) (string, error) {
	qpath := path + ".quarantine"
	if err := os.Rename(path, qpath); err != nil {
		return "", err
	}
	return qpath, nil
}
