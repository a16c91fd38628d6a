package snapshot

// Distributed builds: independent workers (goroutines, processes or
// hosts sharing a filesystem) each seal a contiguous user range
// [lo, hi) as a part file next to the final snapshot, and a final
// MergeShards call validates that the sealed parts tile the population
// exactly and splices them into the canonical snapshot + manifest.
//
// Because the payload is user-major, a part's payload bytes are
// already exactly the bytes the final snapshot needs at that offset —
// so the merge is a verified byte concatenation, and every checksum
// the sealed store carries (header CRC, manifest shard CRCs) is
// recomputed from the parts' CRC tables with the GF(2) combine in
// combine.go instead of re-streaming every record through a Writer.
// The tests keep the replay-through-a-Writer merge as the oracle the
// splice is pinned byte-identical against.
//
// # Part layout
//
// A part is a sealed, self-checksummed slice of the payload:
//
//	offset 0    magic "RPWSPRT2" (8 bytes)
//	offset 8    header: 16 × uint64
//	              fields 0–9: identical to the snapshot header
//	              (headerVersion … binsPerWeek), then payloadFloats
//	              (of the FULL key, so a part can never be mistaken
//	              for a differently sized population), lo, hi,
//	              partFloats ((hi-lo) × recordFloats), partCRC
//	              (CRC-32C of the part payload, low 32 bits), tableCRC
//	              (CRC-32C of the record-CRC table, low 32 bits)
//	then        payload: users [lo, hi) × record
//	then        table: (hi-lo) × uint32 per-record CRC-32Cs
//
// The per-record table is what lets the merge seal the manifest
// without re-reading a single payload float: record CRCs concatenate
// into manifest shard CRCs and the header checksum by pure CRC
// algebra, and the table itself is cross-checked against partCRC (the
// fold of the table must equal the payload's own checksum) so a
// corrupt table can never produce a sealed store.
//
// Parts use the same temp-file + commit discipline as the snapshot
// writer (commit.go): a crashed worker leaves only a temp file (swept
// by the next Create), never a sealed-looking part.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	partMagic    = "RPWSPRT2"
	partFields   = 16
	partHdrBytes = 8 + partFields*8
)

// PartPath returns the part-file path for users [lo, hi) of the key
// under dir. The range is zero-padded so lexical order is user order.
func (k Key) PartPath(dir string, lo, hi int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.part-%08d-%08d", k.Filename(), lo, hi))
}

func (k Key) encodePartHeader(lo, hi int, crc, tableCRC uint32) []byte {
	partFloats := (hi - lo) * k.Layout().RecordFloats()
	return encodeHead(partMagic, k.headFields(uint64(lo), uint64(hi), uint64(partFloats), uint64(crc), uint64(tableCRC)))
}

// checkPartHeader validates a part header against the key and the
// range its filename claims, returning the payload and record-table
// checksums it seals.
func (k Key) checkPartHeader(buf []byte, lo, hi int) (checksum, tableCRC uint64, err error) {
	partFloats := (hi - lo) * k.Layout().RecordFloats()
	if err := checkHead(buf, partMagic, "part", k.headFields(uint64(lo), uint64(hi), uint64(partFloats)),
		"range lo", "range hi", "part floats"); err != nil {
		return 0, 0, err
	}
	return headField(buf, 14), headField(buf, 15), nil
}

// partSize returns the sealed on-disk size of a part covering
// [lo, hi): header ∥ payload ∥ record-CRC table.
func (k Key) partSize(lo, hi int) int64 {
	rf := int64(k.Layout().RecordFloats())
	return int64(partHdrBytes) + int64(hi-lo)*rf*8 + int64(hi-lo)*4
}

// ShardWriter streams one contiguous user range of a snapshot to a
// sealed part file. It shares Writer's record-appending core and
// contract: append users [lo, hi) in order, then Finish (or Abort).
type ShardWriter struct {
	*recordFile
	key    Key
	lo, hi int
}

// CreateShard opens a part writer for users [lo, hi) of key under dir
// (created if missing). Ranges from concurrent workers must be
// disjoint; MergeShards enforces that they tile the population.
func CreateShard(dir string, key Key, lo, hi int) (*ShardWriter, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > key.Users {
		return nil, fmt.Errorf("snapshot: shard range [%d, %d) invalid for %d users", lo, hi, key.Users)
	}
	lay := key.Layout()
	r, err := newRecordFile(key.PartPath(dir, lo, hi), lay, hi-lo, key.encodePartHeader(lo, hi, 0, 0))
	if err != nil {
		return nil, err
	}
	return &ShardWriter{recordFile: r, key: key, lo: lo, hi: hi}, nil
}

// Finish seals the part: the full range must have been appended. It
// appends the record-CRC table, patches the header checksums and
// commits the part into place.
func (w *ShardWriter) Finish() error {
	if err := w.complete(); err != nil {
		return err
	}
	table := encodeCRCTable(w.recCRCs)
	if err := w.write(table); err != nil {
		return err
	}
	s := recordShift(w.lay)
	return w.commit(w.key.encodePartHeader(w.lo, w.hi, s.fold(w.recCRCs), crc32.Checksum(table, crcTable)))
}

// findParts lists the sealed parts of key under dir, sorted by lo.
func findParts(dir string, key Key) ([]PartInfo, error) {
	prefix := key.Filename() + ".part-"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var parts []PartInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || strings.Contains(name, ".tmp") {
			continue
		}
		var lo, hi int
		if _, err := fmt.Sscanf(name[len(prefix):], "%d-%d", &lo, &hi); err != nil {
			continue
		}
		// The suffix must be exactly the range — anything trailing
		// (a quarantined "….bad", editor droppings) is not a sealed
		// part and must never reach a merge.
		if name[len(prefix):] != fmt.Sprintf("%08d-%08d", lo, hi) {
			continue
		}
		parts = append(parts, PartInfo{Path: filepath.Join(dir, name), Lo: lo, Hi: hi})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Lo < parts[j].Lo })
	return parts, nil
}

// checkPartTiling validates that the discovered parts cover [0, users)
// exactly, with no gaps or overlaps.
func checkPartTiling(parts []PartInfo, key Key, dir string) error {
	if len(parts) == 0 {
		return fmt.Errorf("snapshot: no sealed parts for %s under %s", key.Filename(), dir)
	}
	next := 0
	for _, p := range parts {
		if p.Lo != next {
			return fmt.Errorf("snapshot: parts do not tile the population: next range starts at %d, want %d (have %s)", p.Lo, next, filepath.Base(p.Path))
		}
		next = p.Hi
	}
	if next != key.Users {
		return fmt.Errorf("snapshot: parts cover users [0, %d), store needs [0, %d)", next, key.Users)
	}
	return nil
}

// readPartMeta validates one part's size and header, reads its
// record-CRC table (verifying the table's own checksum), and
// cross-checks the table against the payload checksum: the CRC fold of
// the per-record entries must reproduce partCRC exactly, so a sealed
// store can never be derived from a table that disagrees with the
// payload it describes.
func readPartMeta(key Key, p PartInfo, recShift *crcShift) (payloadCRC uint32, recCRCs []uint32, err error) {
	f, err := os.Open(p.Path)
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	return decodePartMeta(f, st.Size(), key, p, recShift)
}

// decodePartMeta is readPartMeta over any sized reader.
func decodePartMeta(r io.ReaderAt, size int64, key Key, p PartInfo, recShift *crcShift) (payloadCRC uint32, recCRCs []uint32, err error) {
	name := filepath.Base(p.Path)
	if want := key.partSize(p.Lo, p.Hi); size != want {
		return 0, nil, fmt.Errorf("snapshot: part %s is %d bytes, want %d (truncated or foreign)", name, size, want)
	}
	var hdr [partHdrBytes]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	checksum, tableCRC, err := key.checkPartHeader(hdr[:], p.Lo, p.Hi)
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: part %s: %w", name, err)
	}
	rf := key.Layout().RecordFloats()
	table := make([]byte, 4*(p.Hi-p.Lo))
	if _, err := r.ReadAt(table, int64(partHdrBytes)+int64(p.Hi-p.Lo)*int64(rf)*8); err != nil {
		return 0, nil, fmt.Errorf("snapshot: part %s table: %w", name, err)
	}
	if got := crc32.Checksum(table, crcTable); uint64(got) != tableCRC {
		return 0, nil, fmt.Errorf("snapshot: part %s record table checksum %08x != header %08x (corrupt)", name, got, tableCRC)
	}
	recCRCs = decodeCRCTable(table)
	if fold := recShift.fold(recCRCs); uint64(fold) != checksum {
		return 0, nil, fmt.Errorf("snapshot: part %s record table folds to %08x, payload checksum is %08x (inconsistent part)", name, fold, checksum)
	}
	return uint32(checksum), recCRCs, nil
}

// MergeShards discovers the sealed parts of key under dir, verifies
// they tile [0, users) exactly, and splices them into the sealed
// snapshot + manifest, byte-identical to a single-process build. The
// user-major payload makes part payloads byte-exact slices of the
// final store, so the merge concatenates them with verified bulk byte
// copies and derives every checksum — the header CRC and the
// manifest's shard and record tables — from the parts' record-CRC
// tables by CRC combination, never re-streaming records through a
// Writer. On success the consumed part files are removed. It returns
// the number of parts merged.
func MergeShards(dir string, key Key) (int, error) {
	if err := key.validate(); err != nil {
		return 0, err
	}
	parts, err := findParts(dir, key)
	if err != nil {
		return 0, err
	}
	if err := checkPartTiling(parts, key, dir); err != nil {
		return 0, err
	}
	lay := key.Layout()
	recShift := recordShift(lay)

	// Pass 1: headers + record-CRC tables, each table cross-checked
	// against its part's payload checksum.
	recCRCs := make([]uint32, 0, key.Users)
	partCRCs := make([]uint32, len(parts))
	for i, p := range parts {
		crc, tbl, err := readPartMeta(key, p, &recShift)
		if err != nil {
			return 0, err
		}
		partCRCs[i] = crc
		recCRCs = append(recCRCs, tbl...)
	}

	// Pass 2: splice. The store's checksum folds from the record
	// table, so the final header is written first and never patched.
	t, err := newTempFile(key.Path(dir))
	if err != nil {
		return 0, err
	}
	if err := t.write(key.encodeHeader(recShift.fold(recCRCs))); err != nil {
		return 0, err
	}
	for i, p := range parts {
		if err := spliceOnePart(t.bw, key, p, partCRCs[i]); err != nil {
			t.Abort()
			return 0, err
		}
	}
	if err := sealStore(t, key, nil, recCRCs); err != nil {
		return 0, err
	}
	for _, p := range parts {
		_ = os.Remove(p.Path)
	}
	return len(parts), nil
}

// spliceOnePart bulk-copies one part's payload bytes into the
// destination, re-verifying the part checksum as the bytes stream
// through (so a part corrupted after pass 1 still cannot seal).
func spliceOnePart(dst io.Writer, key Key, p PartInfo, wantCRC uint32) error {
	f, err := os.Open(p.Path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	payloadBytes := int64(p.Hi-p.Lo) * int64(key.Layout().RecordFloats()) * 8
	h := crc32.New(crcTable)
	n, err := io.CopyBuffer(io.MultiWriter(dst, h), io.NewSectionReader(f, partHdrBytes, payloadBytes), make([]byte, 1<<20))
	if err == nil && n != payloadBytes {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fmt.Errorf("snapshot: part %s: %w", filepath.Base(p.Path), err)
	}
	if crc := h.Sum32(); crc != wantCRC {
		return fmt.Errorf("snapshot: part %s payload checksum %08x != header %08x (corrupt)", filepath.Base(p.Path), crc, wantCRC)
	}
	return nil
}

// PartInfo describes one sealed part file of a distributed build.
// ListParts returns it with only the discovery fields (Path, Lo, Hi)
// populated; VerifyPart fills Bytes and CRC after proving the part
// sound end to end.
type PartInfo struct {
	Path   string
	Lo, Hi int    // user range [Lo, Hi)
	Bytes  int64  // sealed on-disk size (header ∥ payload ∥ CRC table)
	CRC    uint32 // CRC-32C of the part payload
}

// ListParts returns the sealed parts of key under dir, sorted by Lo.
// Discovery only: the parts are not validated (a truncated or corrupt
// part still lists); callers that need proof run VerifyPart per part.
// Quarantined "*.bad" files and in-flight temps are never listed.
func ListParts(dir string, key Key) ([]PartInfo, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	parts, err := findParts(dir, key)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // no store directory yet: a cold build, not an error
		}
		return nil, err
	}
	return parts, nil
}

// VerifyPart proves one sealed part sound end to end: size, header
// (against the key and the range), record-CRC table self-checksum,
// table-vs-payload-checksum consistency, and a full streaming read of
// the payload against the sealed CRC. It is the resume gate of a
// fault-tolerant coordinator — only a part that passes may be adopted
// as done work; anything else is quarantined and rebuilt. The returned
// PartInfo carries the sealed size and payload CRC.
func VerifyPart(dir string, key Key, lo, hi int) (PartInfo, error) {
	if err := key.validate(); err != nil {
		return PartInfo{}, err
	}
	if lo < 0 || hi <= lo || hi > key.Users {
		return PartInfo{}, fmt.Errorf("snapshot: part range [%d, %d) invalid for %d users", lo, hi, key.Users)
	}
	p := PartInfo{Path: key.PartPath(dir, lo, hi), Lo: lo, Hi: hi}
	recShift := recordShift(key.Layout())
	crc, _, err := readPartMeta(key, p, &recShift)
	if err != nil {
		return PartInfo{}, err
	}
	// readPartMeta proves header and table; the payload bytes
	// themselves still need one streaming pass against the sealed CRC.
	if err := spliceOnePart(io.Discard, key, p, crc); err != nil {
		return PartInfo{}, err
	}
	p.Bytes, p.CRC = key.partSize(lo, hi), crc
	return p, nil
}

// QuarantineSuffix marks a part file that failed verification and was
// moved out of the build's way. Quarantined files are invisible to
// ListParts/MergeShards and are reaped by GC once they age out.
const QuarantineSuffix = ".bad"

// QuarantinePart renames a failed part to its quarantine name and
// returns that name. An existing quarantine file for the same part is
// replaced — the newest corpse is the one worth examining.
func QuarantinePart(path string) (string, error) {
	bad := path + QuarantineSuffix
	if err := os.Rename(path, bad); err != nil {
		return "", fmt.Errorf("snapshot: quarantine: %w", err)
	}
	return bad, nil
}
