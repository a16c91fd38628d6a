package snapshot

// Every file this package seals — snapshot, part, merged store,
// manifest, received part — goes through one discipline: bytes land in
// a uniquely named temp file next to the final path ("….tmp*", which
// sweepStaleTemps recognizes), and only commitFile makes them visible.
// A crash at any step leaves either the old file or the complete new
// one under the final name, never a torn one.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// commitFile makes a fully written temp file durable under final:
// fsync the file, close it, rename it over final, then fsync the
// parent directory so the rename itself survives power loss. On
// failure the temp file is removed and final is left as it was.
// Multi-file commits (snapshot before manifest) call it in order.
func commitFile(f *os.File, final string) error {
	tmp := f.Name()
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	d, err := os.Open(filepath.Dir(final))
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("snapshot: sync %s: %w", filepath.Dir(final), err)
	}
	return nil
}

// tempFile is a file under construction that becomes visible under
// final only through commit.
type tempFile struct {
	f     *os.File
	bw    *bufio.Writer
	final string
	done  bool
}

// newTempFile creates final's directory if missing, sweeps stale
// temps of crashed writers from it, and opens a per-writer unique
// temp file there: concurrent builds of the same file (two goroutines,
// two processes) must never share a temp file, or they would
// interleave writes and seal a corrupt result. Whoever commits last
// wins; every build of one name is byte-identical anyway.
func newTempFile(final string) (*tempFile, error) {
	dir := filepath.Dir(final)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	sweepStaleTemps(dir)
	f, err := os.CreateTemp(dir, filepath.Base(final)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &tempFile{f: f, final: final}, nil
}

// write appends to the file through a 1 MiB buffer, aborting the file
// on failure.
func (t *tempFile) write(b []byte) error {
	if t.bw == nil {
		t.bw = bufio.NewWriterSize(t.f, 1<<20)
	}
	if _, err := t.bw.Write(b); err != nil {
		t.Abort()
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// commit flushes the file, overwrites its head with hdr (when non-nil:
// a header whose checksums are only known at the end), and commits it
// under its final name.
func (t *tempFile) commit(hdr []byte) error {
	if t.done {
		return errors.New("snapshot: writer already finished")
	}
	var err error
	if t.bw != nil {
		err = t.bw.Flush()
	}
	if err == nil && hdr != nil {
		_, err = t.f.WriteAt(hdr, 0)
	}
	if err != nil {
		t.Abort()
		return fmt.Errorf("snapshot: %w", err)
	}
	t.done = true
	return commitFile(t.f, t.final)
}

// Abort discards the unsealed file. Safe to call after a failed
// commit or on any error path; never touches a sealed file.
func (t *tempFile) Abort() {
	if t.done {
		return
	}
	t.done = true
	_ = t.f.Close()
	_ = os.Remove(t.f.Name())
}

// recordFile is the record-appending core Writer and ShardWriter
// share: whole user records are appended in order to a temp file
// while a per-record CRC-32C table is kept. Everything either writer
// seals — the payload checksum, the part's record table, the
// manifest's shard and record tables — derives from that table.
type recordFile struct {
	*tempFile
	lay     Layout
	limit   int // records the file holds when complete
	recCRCs []uint32
}

// newRecordFile opens the temp file for final and writes hdr, the
// placeholder header commit later overwrites.
func newRecordFile(final string, lay Layout, limit int, hdr []byte) (*recordFile, error) {
	t, err := newTempFile(final)
	if err != nil {
		return nil, err
	}
	if err := t.write(hdr); err != nil {
		return nil, err
	}
	return &recordFile{tempFile: t, lay: lay, limit: limit}, nil
}

// Layout returns the payload geometry (of the full key).
func (r *recordFile) Layout() Layout { return r.lay }

// AppendUsers appends whole user records (len must be a multiple of
// Layout().RecordFloats()) in user order.
func (r *recordFile) AppendUsers(recs []float64) error {
	rf := r.lay.RecordFloats()
	if len(recs)%rf != 0 {
		return fmt.Errorf("snapshot: AppendUsers got %d floats, not a multiple of the %d-float record", len(recs), rf)
	}
	n := len(recs) / rf
	if len(r.recCRCs)+n > r.limit {
		return fmt.Errorf("snapshot: appending %d users past the %d this file holds", len(r.recCRCs)+n, r.limit)
	}
	b := floatBytes(recs)
	for i := 0; i < n; i++ {
		r.recCRCs = append(r.recCRCs, crc32.Checksum(b[i*rf*8:(i+1)*rf*8], crcTable))
	}
	return r.write(b)
}

// complete checks that every record has been appended, aborting the
// file otherwise.
func (r *recordFile) complete() error {
	if r.done {
		return errors.New("snapshot: writer already finished")
	}
	if len(r.recCRCs) != r.limit {
		r.Abort()
		return fmt.Errorf("snapshot: %d of %d users appended", len(r.recCRCs), r.limit)
	}
	return nil
}

// recordShift returns the CRC operator for appending one record of
// the layout.
func recordShift(lay Layout) crcShift {
	return makeCRCShift(int64(lay.RecordFloats()) * 8)
}

// fold returns the CRC-32C of consecutive records from their
// per-record CRCs.
func (s *crcShift) fold(crcs []uint32) uint32 {
	crc := uint32(0)
	for _, c := range crcs {
		crc = s.combine(crc, c)
	}
	return crc
}

// manifestShardCRCs folds a store's per-record CRC table into the
// manifest's per-shard CRCs. Every build path derives the manifest
// from the record table through this one function, so every build
// path seals the identical manifest.
func manifestShardCRCs(lay Layout, recCRCs []uint32) []uint32 {
	s := recordShift(lay)
	shards := make([]uint32, ManifestShards(len(recCRCs)))
	for i := range shards {
		lo := i * ManifestShardUsers
		shards[i] = s.fold(recCRCs[lo:min(lo+ManifestShardUsers, len(recCRCs))])
	}
	return shards
}

// sealStore commits a fully written snapshot temp file (patching its
// head with hdr when non-nil), then the manifest derived from the
// store's record-CRC table. Snapshot before manifest: a reader can
// never see a manifest without its store. A failed manifest write
// degrades the store to manifest-less (OpenUser errors, full Open
// still works), which is strictly better than no snapshot at all.
func sealStore(t *tempFile, key Key, hdr []byte, recCRCs []uint32) error {
	if err := t.commit(hdr); err != nil {
		return err
	}
	mt, err := newTempFile(t.final + manifestSuffix)
	if err == nil {
		err = mt.write(encodeManifest(key, manifestShardCRCs(key.Layout(), recCRCs), recCRCs))
	}
	if err == nil {
		err = mt.commit(nil)
	}
	if err != nil {
		return fmt.Errorf("snapshot: manifest: %w", err)
	}
	return nil
}

// encodeCRCTable renders a record-CRC table as its on-disk bytes.
func encodeCRCTable(crcs []uint32) []byte {
	buf := make([]byte, 4*len(crcs))
	for i, c := range crcs {
		binary.LittleEndian.PutUint32(buf[4*i:], c)
	}
	return buf
}

// decodeCRCTable parses on-disk record-CRC table bytes.
func decodeCRCTable(b []byte) []uint32 {
	crcs := make([]uint32, len(b)/4)
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return crcs
}
