package census

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/tass-scan/tass/internal/addrset"
	"github.com/tass-scan/tass/internal/mmapfile"
	"github.com/tass-scan/tass/internal/netaddr"
)

// TASSNAP3 — the indexed snapshot file format.
//
// The v1 stream (TASSCNS/TASSCN6, census.go) is one long delta stream:
// reading it costs O(addresses) in time and memory before the first
// count can run, so it is the interchange format (Snapshot.WriteTo,
// `tass convert -in`), never a file the load paths open. TASSNAP3
// prefixes the same delta-coded payload with a block directory, so
// opening costs O(blocks): the index is parsed and checksummed, the
// payload is mapped (or left on disk for pread) and blocks decode on
// first touch through the addrset lazy cache. Each directory record
// carries its block's CRC-32, so payload corruption is detected at first
// decode and localized to one block — the unit `tass fsck` quarantines.
//
// TASSNAP2 is the same layout without the per-block CRCs. Only scrub and
// repair still read it: repair rewrites it as TASSNAP3, its one upgrade
// path. Open and verify reject it, and reject a v1 stream, with an error
// naming the command that upgrades the file.
//
//	magic      [8]byte "TASSNAP3" ("TASSNAP2" in old files)
//	family     byte: 4 or 6
//	proto      uvarint length + bytes
//	month      uvarint
//	count      uvarint  total addresses
//	blockSize  uvarint  addresses per block (last block may hold fewer)
//	nblocks    uvarint
//	payloadLen uvarint
//	dirLen     uvarint  directory length in bytes
//	payloadCRC [4]byte  CRC-32 (IEEE) of the payload, little endian
//	directory  dirLen bytes: per block,
//	             minDelta  key uvarint (block 0 absolute, then delta
//	                       from the previous block's min)
//	             span      key uvarint (max - min)
//	             count_i   uvarint
//	             bytes_i   uvarint (encoded stream length)
//	             crc_i     [4]byte  (not in TASSNAP2) CRC-32 (IEEE) of the
//	                       block's payload bytes, little endian
//	indexCRC   [4]byte  CRC-32 (IEEE) of everything above, little endian
//	payload    payloadLen bytes: per block, count_i-1 key-uvarint deltas
//
// The index CRC is verified at open (still O(blocks)); the payload CRC
// is only read by VerifySnapshotFile, keeping cold opens free of any
// O(addresses) work. A block payload corrupted after a successful open
// surfaces at first decode as a typed *addrset.BlockError — a per-block
// CRC mismatch, or (scrubbing TASSNAP2) the decoded population/max
// disagreeing with the trusted directory — propagated or degraded
// around per the set's FaultPolicy, never a panic.
var (
	magic2 = [8]byte{'T', 'A', 'S', 'S', 'N', 'A', 'P', '2'}
	magic3 = [8]byte{'T', 'A', 'S', 'S', 'N', 'A', 'P', '3'}
)

// The load paths' verdicts on the two older formats, each naming the
// one command that upgrades the file.
var (
	errV1Stream = fmt.Errorf("%w: v1 snapshot stream, not an indexed file; convert it with \"tass convert -in FILE -o OUT\"", ErrFormat)
	errV2File   = fmt.Errorf("%w: TASSNAP2 file (no per-block CRCs); upgrade it with \"tass fsck -repair FILE\"", ErrFormat)
)

func familyByte(width int) byte {
	if width == 32 {
		return 4
	}
	return 6
}

// snapFileIndex is a parsed TASSNAP2/3 header + directory.
type snapFileIndex[A netaddr.Key[A]] struct {
	version    int // 2 or 3
	proto      string
	month      int
	count      int
	blockSize  int
	payloadCRC uint32
	payloadOff int
	payloadLen int

	mins, maxs    []A
	counts, blens []int
	crcs          []uint32 // per-block payload CRCs; nil on v2
}

// parseSnapFileIndex reads and validates the header, directory and
// index CRC of an open TASSNAP2/3 file. It touches only the index prefix
// of the file — O(blocks) bytes — never the payload. A v1 stream is
// rejected with errV1Stream. TASSNAP2 parses, for scrub and repair;
// the load path goes through parseCurrentSnapIndex instead.
func parseSnapFileIndex[A netaddr.Key[A]](m *mmapfile.File) (*snapFileIndex[A], error) {
	size := int(m.Size())
	// The fixed header fits well under 4 KiB (proto <= 255 bytes, seven
	// uvarints, one CRC); grab that much, or the whole file if smaller.
	headLen := 4096
	if headLen > size {
		headLen = size
	}
	head, err := m.BytesAt(0, headLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	version := 0
	switch {
	case len(head) >= len(magic2)+1 && bytes.Equal(head[:8], magic2[:]):
		version = 2
	case len(head) >= len(magic3)+1 && bytes.Equal(head[:8], magic3[:]):
		version = 3
	case len(head) >= 8 && (bytes.Equal(head[:8], magic[:]) || bytes.Equal(head[:8], magic6[:])):
		return nil, errV1Stream
	default:
		return nil, fmt.Errorf("%w: not a TASSNAP2/TASSNAP3 file", ErrFormat)
	}
	var zero A
	if fam := head[8]; fam != familyByte(zero.Width()) {
		return nil, fmt.Errorf("%w: family %d, want %d", ErrFormat, head[8], familyByte(zero.Width()))
	}
	pos := 9
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(head[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated header at %s", ErrFormat, what)
		}
		pos += n
		return v, nil
	}
	protoLen, err := next("proto length")
	if err != nil {
		return nil, err
	}
	if protoLen > 255 || pos+int(protoLen) > len(head) {
		return nil, fmt.Errorf("%w: protocol name length %d", ErrFormat, protoLen)
	}
	proto := string(head[pos : pos+int(protoLen)])
	pos += int(protoLen)
	month, err := next("month")
	if err != nil {
		return nil, err
	}
	count, err := next("count")
	if err != nil {
		return nil, err
	}
	blockSize, err := next("block size")
	if err != nil {
		return nil, err
	}
	nblocks, err := next("block count")
	if err != nil {
		return nil, err
	}
	payloadLen, err := next("payload length")
	if err != nil {
		return nil, err
	}
	dirLen, err := next("directory length")
	if err != nil {
		return nil, err
	}
	if pos+4 > len(head) {
		return nil, fmt.Errorf("%w: truncated header at payload CRC", ErrFormat)
	}
	payloadCRC := binary.LittleEndian.Uint32(head[pos:])
	pos += 4
	hdrEnd := pos

	if count > 1<<33 || blockSize == 0 || blockSize > 1<<20 {
		return nil, fmt.Errorf("%w: implausible count %d / block size %d", ErrFormat, count, blockSize)
	}
	// Every directory record is at least 4 bytes (four 1-byte fields) —
	// 8 on v3, which appends a fixed 4-byte CRC — so nblocks is bounded
	// by the directory it claims to describe, checked before any
	// nblocks-sized allocation.
	recMin := uint64(4)
	if version == 3 {
		recMin = 8
	}
	idxEnd := hdrEnd + int(dirLen)
	payloadOff := idxEnd + 4
	if dirLen > uint64(size) || payloadOff+int(payloadLen) != size {
		return nil, fmt.Errorf("%w: file is %d bytes, index describes %d", ErrFormat, size, payloadOff+int(payloadLen))
	}
	if nblocks > dirLen/recMin {
		return nil, fmt.Errorf("%w: %d blocks cannot fit a %d-byte directory", ErrFormat, nblocks, dirLen)
	}

	idx, err := m.BytesAt(0, idxEnd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	crcb, err := m.BytesAt(idxEnd, 4)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if got, want := crc32.ChecksumIEEE(idx), binary.LittleEndian.Uint32(crcb); got != want {
		return nil, fmt.Errorf("%w: index CRC mismatch (got %08x, want %08x)", ErrFormat, got, want)
	}

	out := &snapFileIndex[A]{
		version:    version,
		proto:      proto,
		month:      int(month),
		count:      int(count),
		blockSize:  int(blockSize),
		payloadCRC: payloadCRC,
		payloadOff: payloadOff,
		payloadLen: int(payloadLen),
		mins:       make([]A, nblocks),
		maxs:       make([]A, nblocks),
		counts:     make([]int, nblocks),
		blens:      make([]int, nblocks),
	}
	if version == 3 {
		out.crcs = make([]uint32, nblocks)
	}
	dir := idx[hdrEnd:]
	dpos := 0
	total := 0
	var prevMin A
	for i := 0; i < int(nblocks); i++ {
		minDelta, n := netaddr.DecodeKeyUvarint[A](dir[dpos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated directory at block %d", ErrFormat, i)
		}
		dpos += n
		span, n := netaddr.DecodeKeyUvarint[A](dir[dpos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated directory at block %d", ErrFormat, i)
		}
		dpos += n
		cnt, n := binary.Uvarint(dir[dpos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated directory at block %d", ErrFormat, i)
		}
		dpos += n
		bl, n := binary.Uvarint(dir[dpos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated directory at block %d", ErrFormat, i)
		}
		dpos += n
		if version == 3 {
			if dpos+4 > len(dir) {
				return nil, fmt.Errorf("%w: truncated directory at block %d", ErrFormat, i)
			}
			out.crcs[i] = binary.LittleEndian.Uint32(dir[dpos:])
			dpos += 4
		}
		min := minDelta
		if i > 0 {
			min = netaddr.KeyAdd(prevMin, minDelta)
			if min.Compare(prevMin) < 0 {
				return nil, fmt.Errorf("%w: block %d min wraps the address space", ErrFormat, i)
			}
		}
		max := netaddr.KeyAdd(min, span)
		if max.Compare(min) < 0 {
			return nil, fmt.Errorf("%w: block %d max wraps the address space", ErrFormat, i)
		}
		if cnt > uint64(blockSize) || bl > uint64(payloadLen) {
			return nil, fmt.Errorf("%w: block %d directory entry out of range", ErrFormat, i)
		}
		out.mins[i] = min
		out.maxs[i] = max
		out.counts[i] = int(cnt)
		out.blens[i] = int(bl)
		total += int(cnt)
		prevMin = min
	}
	if dpos != len(dir) {
		return nil, fmt.Errorf("%w: directory has %d trailing bytes", ErrFormat, len(dir)-dpos)
	}
	if total != out.count {
		return nil, fmt.Errorf("%w: directory counts sum to %d, header says %d", ErrFormat, total, out.count)
	}
	return out, nil
}

// parseCurrentSnapIndex is parseSnapFileIndex for the load path, which
// accepts only the current format, TASSNAP3.
func parseCurrentSnapIndex[A netaddr.Key[A]](m *mmapfile.File) (*snapFileIndex[A], error) {
	idx, err := parseSnapFileIndex[A](m)
	if err == nil && idx.version != 3 {
		return nil, errV2File
	}
	return idx, err
}

// fileSource serves block extents from the payload region of an open
// snapshot file; it is the mmap/pread BlockSource behind lazy sets.
type fileSource struct {
	f    *mmapfile.File
	base int
	size int
}

func (s *fileSource) Bytes(off, n int) ([]byte, error) { return s.f.BytesAt(s.base+off, n) }
func (s *fileSource) Size() int                        { return s.size }

// blockCheckSource wraps a BlockSource with the per-block CRCs:
// every whole-block extent read is checksummed against the (index-CRC
// protected) directory before the decoder sees a byte. The check runs
// at first decode — and again if the block is evicted and re-faulted —
// never at open, so cold opens stay O(blocks). Extents that are not
// exactly one block pass through unchecked; the addrset core only ever
// reads whole blocks.
type blockCheckSource struct {
	src  addrset.BlockSource
	offs []int // ascending block start offsets within the payload
	lens []int
	crcs []uint32
}

func (s *blockCheckSource) Bytes(off, n int) ([]byte, error) {
	b, err := s.src.Bytes(off, n)
	if err != nil {
		return nil, err
	}
	i := sort.SearchInts(s.offs, off)
	// Zero-length blocks (single-address) share their offset with the
	// next block; scan past them to the extent that matches.
	for i < len(s.offs) && s.offs[i] == off && s.lens[i] != n {
		i++
	}
	if i < len(s.offs) && s.offs[i] == off && s.lens[i] == n {
		if got := crc32.ChecksumIEEE(b); got != s.crcs[i] {
			return nil, fmt.Errorf("block CRC mismatch (got %08x, want %08x)", got, s.crcs[i])
		}
	}
	return b, nil
}

func (s *blockCheckSource) Size() int { return s.src.Size() }

// snapBlockSource builds the BlockSource for a parsed index: the raw
// payload extent server, wrapped with per-block CRC checking unless the
// file is a (scrubbed) TASSNAP2 one without them.
func snapBlockSource[A netaddr.Key[A]](m *mmapfile.File, idx *snapFileIndex[A]) addrset.BlockSource {
	var src addrset.BlockSource = &fileSource{f: m, base: idx.payloadOff, size: idx.payloadLen}
	if idx.crcs == nil {
		return src
	}
	offs := make([]int, len(idx.blens))
	off := 0
	for i, bl := range idx.blens {
		offs[i] = off
		off += bl
	}
	return &blockCheckSource{src: src, offs: offs, lens: idx.blens, crcs: idx.crcs}
}

// OpenSnapshotFile opens an IPv4 snapshot file lazily with the default
// decoded-block cache cap. See OpenSnapshotFileOf.
func OpenSnapshotFile(path string) (*Snapshot, error) {
	return OpenSnapshotFileOf[netaddr.Addr](path, 0)
}

// OpenSnapshotFileOf opens a TASSNAP3 snapshot file of family A in
// O(blocks): the index is parsed and CRC-checked, the payload is mapped
// (pread on platforms without mmap) and blocks decode on first touch,
// cached in an LRU capped at cacheBlocks decoded blocks (0 means the
// addrset default). The returned snapshot is lazy: Addrs is nil,
// counting and selection run off the block index, and Close must be
// called to release the mapping.
//
// Payload integrity is checked lazily, per block, at first decode
// against the block's directory CRC. Damage surfaces as a typed
// *addrset.BlockError through the snapshot's fault plumbing
// (StorageErr/StorageFaults, FaultPolicy) — run VerifySnapshotFile
// first for an eager whole-file check on files of doubtful provenance.
//
// A v1 stream or a TASSNAP2 file is rejected with an error wrapping
// ErrFormat that names its upgrade command: `tass convert -in` for v1,
// `tass fsck -repair` for TASSNAP2.
func OpenSnapshotFileOf[A netaddr.Key[A]](path string, cacheBlocks int) (*SnapshotOf[A], error) {
	m, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	idx, err := parseCurrentSnapIndex[A](m)
	if err != nil {
		m.Close()
		return nil, err
	}
	set, err := addrset.FromIndex(idx.mins, idx.maxs, idx.counts, idx.blens, idx.blockSize, snapBlockSource(m, idx), cacheBlocks)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return &SnapshotOf[A]{
		Protocol: idx.proto,
		Month:    idx.month,
		set:      set,
		lazy:     true,
		closer:   m,
	}, nil
}

// VerifySnapshotFile deep-checks a TASSNAP3 snapshot file of either
// family: index CRC, payload CRC, then a decode of every block against
// the directory and its block CRC. It is the O(addresses) pass that
// makes the lazy open's per-block trust safe for files of unknown
// provenance, and it returns the first finding of ScrubSnapshotFile, in
// that order. Older formats are rejected as OpenSnapshotFileOf rejects
// them.
func VerifySnapshotFile(path string) error {
	rep, err := ScrubSnapshotFile(path)
	switch {
	case err != nil:
		return err
	case rep.IndexErr != nil:
		return rep.IndexErr
	case rep.Format != "TASSNAP3":
		return errV2File
	case !rep.PayloadCRCOK:
		return fmt.Errorf("%w: payload CRC mismatch", ErrFormat)
	case len(rep.Damage) > 0:
		return fmt.Errorf("%w: %v", ErrFormat, rep.Damage[0].Err)
	}
	return nil
}

// WriteSnapshotFile writes an IPv4 snapshot to path in TASSNAP3 format.
// See WriteSnapshotFileOf.
func WriteSnapshotFile(path string, s *Snapshot) error {
	return WriteSnapshotFileOf(path, s)
}

// WriteSnapshotFileOf writes a snapshot of any family to path in
// TASSNAP3 format, atomically (temp file + rename). The payload is
// re-encoded from the snapshot's set view into canonical
// fixed-population blocks, so lazy snapshots serialize to the same
// bytes as a freshly built equal snapshot. Memory stays O(blocks): the
// encode runs twice — once to size the directory and checksum the
// payload, once to stream the payload to disk — rather than buffering
// the payload.
//
// A lazy snapshot with a block that cannot be read follows its fault
// policy: under FailFast the write fails with the *addrset.BlockError
// and leaves path untouched; under Degrade it writes the
// self-consistent file of the intact blocks.
func WriteSnapshotFileOf[A netaddr.Key[A]](path string, s *SnapshotOf[A]) error {
	set := s.Set()
	_, err := writeSnapStream(path, s.Protocol, s.Month, set.BlockSize(), blockWalk(set, set.Policy() == addrset.Degrade))
	return err
}

// blockWalk walks set's addresses block by block for writeSnapStream. A
// block that cannot be read is skipped when skipDamaged is set, and
// otherwise ends the walk with its *addrset.BlockError.
func blockWalk[A netaddr.Key[A]](set *addrset.SetOf[A], skipDamaged bool) func(func(A) bool) error {
	return func(yield func(A) bool) error {
		var ferr error
		set.WalkBlocks(func(_ int, addrs []A, err error) bool {
			if err != nil {
				if !skipDamaged {
					ferr = fmt.Errorf("census: %w", err)
				}
				return skipDamaged
			}
			for _, a := range addrs {
				if !yield(a) {
					return false
				}
			}
			return true
		})
		return ferr
	}
}

// writeSnapStream writes the addresses yielded by walk — which must
// yield the same ascending sequence every time it is called — to path
// as a TASSNAP3 file and returns how many it wrote. It is the writer
// behind both WriteSnapshotFileOf and snapshot repair (which skips the
// damaged blocks). An error from walk fails the write, leaving path
// untouched. The two encode passes are cross-checked: if the payload
// streamed in pass 2 diverges in length from the directory built in
// pass 1 (a non-deterministic walk — e.g. a storage fault that appeared
// mid-repair), the write fails instead of producing a file whose index
// lies about its payload.
func writeSnapStream[A netaddr.Key[A]](path, proto string, month, bsize int, walk func(func(A) bool) error) (int, error) {
	// Pass 1: directory + payload CRC + per-block CRCs, no payload
	// retained.
	var (
		mins, maxs    []A
		counts, blens []int
		crcs          []uint32
		payloadLen    int
		total         int
	)
	crc := crc32.NewIEEE()
	bcrc := crc32.NewIEEE()
	err := encodeSnapBlocks(walk, bsize,
		func(min A) { mins = append(mins, min); bcrc.Reset() },
		func(b []byte) { crc.Write(b); bcrc.Write(b); payloadLen += len(b) },
		func(max A, count, blen int) {
			maxs = append(maxs, max)
			counts = append(counts, count)
			blens = append(blens, blen)
			crcs = append(crcs, bcrc.Sum32())
			total += count
		})
	if err != nil {
		return 0, err
	}

	var zero A
	var hdr bytes.Buffer
	hdr.Write(magic3[:])
	hdr.WriteByte(familyByte(zero.Width()))
	var vbuf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { hdr.Write(vbuf[:binary.PutUvarint(vbuf[:], v)]) }
	putUvarint(uint64(len(proto)))
	hdr.WriteString(proto)
	putUvarint(uint64(month))
	putUvarint(uint64(total))
	putUvarint(uint64(bsize))
	putUvarint(uint64(len(mins)))
	putUvarint(uint64(payloadLen))

	var dir bytes.Buffer
	kbuf := make([]byte, 0, 19)
	var crcb [4]byte
	var prevMin A
	for i := range mins {
		minDelta := mins[i]
		if i > 0 {
			minDelta = netaddr.KeySub(mins[i], prevMin)
		}
		dir.Write(netaddr.AppendKeyUvarint(kbuf[:0], minDelta))
		dir.Write(netaddr.AppendKeyUvarint(kbuf[:0], netaddr.KeySub(maxs[i], mins[i])))
		dir.Write(vbuf[:binary.PutUvarint(vbuf[:], uint64(counts[i]))])
		dir.Write(vbuf[:binary.PutUvarint(vbuf[:], uint64(blens[i]))])
		binary.LittleEndian.PutUint32(crcb[:], crcs[i])
		dir.Write(crcb[:])
		prevMin = mins[i]
	}
	putUvarint(uint64(dir.Len()))
	binary.LittleEndian.PutUint32(crcb[:], crc.Sum32())
	hdr.Write(crcb[:])
	hdr.Write(dir.Bytes())

	// A temp file of its own in the destination directory: a fixed name
	// would clobber a file of that name and be shared by two concurrent
	// writers of one path.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	idxCRC := crc32.ChecksumIEEE(hdr.Bytes())
	binary.LittleEndian.PutUint32(crcb[:], idxCRC)
	var werr error
	written := 0
	write := func(b []byte) {
		if werr == nil {
			_, werr = bw.Write(b)
		}
	}
	write(hdr.Bytes())
	write(crcb[:])
	// Pass 2: stream the payload, counting bytes against pass 1.
	if err := encodeSnapBlocks(walk, bsize, func(A) {}, func(b []byte) { write(b); written += len(b) }, func(A, int, int) {}); err != nil && werr == nil {
		werr = err
	}
	if werr == nil && written != payloadLen {
		werr = fmt.Errorf("census: snapshot encode not deterministic: pass 1 sized %d payload bytes, pass 2 wrote %d", payloadLen, written)
	}
	if werr != nil {
		f.Close()
		return 0, werr
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return total, os.Rename(tmp, path)
}

// encodeSnapBlocks consumes walk's ascending address sequence,
// re-encoding it into fixed-population blocks of bsize addresses:
// startBlock fires with each block's first address, deltaBytes with
// every encoded delta, and endBlock with the block's last address,
// population, and encoded byte length. Two invocations over the same
// walk produce identical byte streams — the property the two-pass file
// writer depends on. An error from walk is returned as is.
func encodeSnapBlocks[A netaddr.Key[A]](walk func(func(A) bool) error, bsize int,
	startBlock func(min A), deltaBytes func(b []byte), endBlock func(max A, count, blen int)) error {
	kbuf := make([]byte, 0, 19)
	var prev A
	inBlk, blen := 0, 0
	err := walk(func(a A) bool {
		if inBlk == bsize {
			endBlock(prev, inBlk, blen)
			inBlk, blen = 0, 0
		}
		if inBlk == 0 {
			startBlock(a)
		} else {
			b := netaddr.AppendKeyUvarint(kbuf[:0], netaddr.KeySub(a, prev))
			deltaBytes(b)
			blen += len(b)
		}
		prev = a
		inBlk++
		return true
	})
	if err == nil && inBlk > 0 {
		endBlock(prev, inBlk, blen)
	}
	return err
}

// ConvertSnapshotFile reads a v1 snapshot stream from r and writes it
// to path as TASSNAP3. It is the library half of `tass convert`.
func ConvertSnapshotFile[A netaddr.Key[A]](r io.Reader, path string) error {
	snap, err := ReadSnapshotOf[A](r)
	if err != nil {
		return err
	}
	return WriteSnapshotFileOf(path, snap)
}
