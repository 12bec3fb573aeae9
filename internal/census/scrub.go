package census

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/atomicfile"
	"github.com/tass-scan/tass/internal/mmapfile"
	"github.com/tass-scan/tass/internal/netaddr"
)

// BlockDamage is one undecodable block found by a snapshot scrub: its
// index, its absolute byte extent within the file, the address count
// the directory attributes to it (what a repair loses), and the fault.
type BlockDamage struct {
	Block    int
	Off, Len int // absolute byte extent within the file
	Lost     int // addresses the directory attributes to the block
	Err      error
}

// SnapshotScrub is the report of one ScrubSnapshotFile pass over a
// snapshot file.
type SnapshotScrub struct {
	Path   string
	Format string // "TASSNAP3", "TASSNAP2", "TASSNAP1" (a v1 stream) or "unknown"
	Blocks int
	Hosts  int // addresses decodable from intact blocks

	// PayloadCRCOK reports the whole-payload checksum. It can fail
	// while every block still decodes (TASSNAP2 damage that preserves
	// block structure); repair then rewrites the file with fresh
	// checksums.
	PayloadCRCOK bool

	// Damage lists every block that failed its checksum or decode.
	Damage []BlockDamage

	// IndexErr is non-nil when the header or block directory itself is
	// unusable (bad magic, index CRC mismatch, truncation) — nothing
	// can be localized and the file cannot be repaired in place. For a
	// v1 stream it is the error naming `tass convert -in`: the stream
	// is interchange data, not a file to scrub or repair.
	IndexErr error
}

// Clean reports whether the scrub found nothing wrong: an undamaged
// file in the current format. An undamaged TASSNAP2 file is not clean;
// RepairSnapshotFile upgrades it.
func (r *SnapshotScrub) Clean() bool {
	return r.IndexErr == nil && len(r.Damage) == 0 && r.PayloadCRCOK && r.Format == "TASSNAP3"
}

// ScrubSnapshotFile verifies a TASSNAP3 or TASSNAP2 snapshot file block
// by block and reports every finding instead of stopping at the first,
// streaming with O(one block) resident memory. The check runs
// index-first (header, directory, index CRC), then payload CRC, then a
// decode of every block against the directory and, on TASSNAP3, its
// per-block CRC. A v1 stream is reported as such, undecoded. It is the
// read-only half of `tass fsck`.
func ScrubSnapshotFile(path string) (*SnapshotScrub, error) {
	m, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	rep := &SnapshotScrub{Path: path}
	if int(m.Size()) < 9 {
		rep.Format = "unknown"
		rep.IndexErr = fmt.Errorf("%w: %d-byte file is not a snapshot", ErrFormat, m.Size())
		return rep, nil
	}
	head, err := m.BytesAt(0, 9)
	if err != nil {
		rep.Format = "unknown"
		rep.IndexErr = fmt.Errorf("%w: %v", ErrFormat, err)
		return rep, nil
	}
	if head[8] == 6 {
		scrubSnap[netaddr.Addr6](m, rep)
	} else {
		scrubSnap[netaddr.Addr](m, rep)
	}
	return rep, nil
}

func scrubSnap[A netaddr.Key[A]](m *mmapfile.File, rep *SnapshotScrub) {
	idx, err := parseSnapFileIndex[A](m)
	if err != nil {
		rep.Format = "TASSNAP2/3"
		if errors.Is(err, errV1Stream) {
			rep.Format = "TASSNAP1"
		}
		rep.IndexErr = err
		return
	}
	rep.Format = "TASSNAP2"
	if idx.version == 3 {
		rep.Format = "TASSNAP3"
	}
	rep.Blocks = len(idx.mins)

	crc := crc32.NewIEEE()
	const chunk = 1 << 20
	crcReadable := true
	for off := 0; off < idx.payloadLen; off += chunk {
		n := idx.payloadLen - off
		if n > chunk {
			n = chunk
		}
		b, err := m.BytesAt(idx.payloadOff+off, n)
		if err != nil {
			crcReadable = false
			break
		}
		crc.Write(b)
	}
	rep.PayloadCRCOK = crcReadable && crc.Sum32() == idx.payloadCRC

	counts := append([]int(nil), idx.counts...)
	offs := make([]int, len(idx.blens))
	blens := append([]int(nil), idx.blens...)
	off := 0
	for i, bl := range blens {
		offs[i] = off
		off += bl
	}
	set, err := addrset.FromIndex(idx.mins, idx.maxs, idx.counts, idx.blens, idx.blockSize, snapBlockSource(m, idx), 1)
	if err != nil {
		rep.IndexErr = fmt.Errorf("%w: %v", ErrFormat, err)
		return
	}
	set.SetFaultPolicy(addrset.Degrade)
	set.WalkBlocks(func(bi int, addrs []A, err error) bool {
		if err == nil {
			for i := 1; i < len(addrs); i++ {
				if addrs[i].Compare(addrs[i-1]) < 0 {
					err = fmt.Errorf("block %d not ascending at %v", bi, addrs[i])
					break
				}
			}
		}
		if err != nil {
			rep.Damage = append(rep.Damage, BlockDamage{
				Block: bi,
				Off:   idx.payloadOff + offs[bi],
				Len:   blens[bi],
				Lost:  counts[bi],
				Err:   err,
			})
			return true
		}
		rep.Hosts += len(addrs)
		return true
	})
}

// SnapshotRepair reports what RepairSnapshotFile did.
type SnapshotRepair struct {
	Scrub *SnapshotScrub

	// Repaired is false when the file was already clean and left
	// untouched.
	Repaired bool

	// RecoveredHosts and LostAddrs partition the original population:
	// addresses re-derived into the fresh file vs. addresses in
	// quarantined blocks.
	RecoveredHosts int
	LostAddrs      int

	// QuarantinePath names the sidecar holding the damaged blocks' raw
	// bytes ("" when nothing was quarantined).
	QuarantinePath string
}

// quarantineRecord is one line of the quarantine sidecar: the damaged
// block's directory identity and its raw payload bytes, kept so a
// later forensic pass (or a better-equipped recovery) loses nothing
// the repair threw away.
type quarantineRecord struct {
	Quarantine string `json:"quarantine,omitempty"` // first line: "tass-snapshot"
	Source     string `json:"source,omitempty"`
	Format     string `json:"format,omitempty"`

	Block   int    `json:"block,omitempty"`
	Off     int    `json:"off,omitempty"`
	Len     int    `json:"len,omitempty"`
	Lost    int    `json:"lost,omitempty"`
	Err     string `json:"err,omitempty"`
	Data    string `json:"data,omitempty"` // base64 raw bytes
	ReadErr string `json:"read_err,omitempty"`
}

// RepairSnapshotFile scrubs path and, if damage or the older TASSNAP2
// format is found, re-derives every intact block into a fresh TASSNAP3
// file, atomically replacing path; the damaged blocks' raw bytes are
// saved to path+".quarantine" first, so the repair destroys nothing. It
// is the one upgrade path for TASSNAP2 files. The repaired file is
// re-verified before RepairSnapshotFile returns. Files whose index
// (header, directory, index CRC) is itself damaged cannot be repaired
// in place — localization depends on a trusted directory — and return
// an error, as do v1 streams, which `tass convert -in` turns into
// TASSNAP3 instead.
func RepairSnapshotFile(path string) (*SnapshotRepair, error) {
	scrub, err := ScrubSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	res := &SnapshotRepair{Scrub: scrub}
	if scrub.IndexErr != nil {
		return res, fmt.Errorf("census: %s: index unusable, cannot repair in place: %w", path, scrub.IndexErr)
	}
	if scrub.Clean() {
		res.RecoveredHosts = scrub.Hosts
		return res, nil
	}

	if len(scrub.Damage) > 0 {
		qpath, err := writeQuarantine(path, scrub)
		if err != nil {
			return res, fmt.Errorf("census: quarantine: %w", err)
		}
		res.QuarantinePath = qpath
	}

	m, err := mmapfile.Open(path)
	if err != nil {
		return res, err
	}
	defer m.Close()
	if err := repairSnap(m, path, scrub, res); err != nil {
		return res, err
	}
	if err := VerifySnapshotFile(path); err != nil {
		return res, fmt.Errorf("census: repaired file fails verification: %w", err)
	}
	res.Repaired = true
	return res, nil
}

func repairSnap(m *mmapfile.File, path string, scrub *SnapshotScrub, res *SnapshotRepair) error {
	fam, err := m.BytesAt(8, 1)
	if err != nil {
		return err
	}
	if fam[0] == 6 {
		return repairSnapOf[netaddr.Addr6](m, path, scrub, res)
	}
	return repairSnapOf[netaddr.Addr](m, path, scrub, res)
}

func repairSnapOf[A netaddr.Key[A]](m *mmapfile.File, path string, scrub *SnapshotScrub, res *SnapshotRepair) error {
	idx, err := parseSnapFileIndex[A](m)
	if err != nil {
		return err
	}
	set, err := addrset.FromIndex(idx.mins, idx.maxs, idx.counts, idx.blens, idx.blockSize, snapBlockSource(m, idx), 1)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	set.SetFaultPolicy(addrset.Degrade)
	// The intact-only walk: damaged blocks are skipped deterministically
	// (their checksum or index mismatch reproduces on every decode), so
	// the writer's two passes agree; a fault that appears only mid-write
	// trips the writer's pass-1/pass-2 cross-check instead of producing
	// a lying file.
	recovered, err := writeSnapStream(path, idx.proto, idx.month, idx.blockSize, blockWalk(set, true))
	if err != nil {
		return err
	}
	res.RecoveredHosts = recovered
	for _, d := range scrub.Damage {
		res.LostAddrs += d.Lost
	}
	return nil
}

// writeQuarantine saves the damaged blocks' raw bytes beside the file
// being repaired, one JSON record per line, before the repair rewrites
// it.
func writeQuarantine(path string, scrub *SnapshotScrub) (string, error) {
	m, err := mmapfile.Open(path)
	if err != nil {
		return "", err
	}
	defer m.Close()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(quarantineRecord{Quarantine: "tass-snapshot", Source: path, Format: scrub.Format}); err != nil {
		return "", err
	}
	for _, d := range scrub.Damage {
		rec := quarantineRecord{Block: d.Block, Off: d.Off, Len: d.Len, Lost: d.Lost}
		if d.Err != nil {
			rec.Err = d.Err.Error()
		}
		if d.Len > 0 {
			if raw, err := m.BytesAt(d.Off, d.Len); err == nil {
				rec.Data = base64.StdEncoding.EncodeToString(raw)
			} else {
				rec.ReadErr = err.Error()
			}
		}
		if err := enc.Encode(rec); err != nil {
			return "", err
		}
	}
	qpath := path + ".quarantine"
	if err := atomicfile.WriteFile(qpath, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return qpath, nil
}
