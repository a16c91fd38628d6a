package snapshot

// The manifest is the integrity sidecar of a sealed snapshot: a small
// "<name>.snap.manifest" file describing the payload as fixed-size
// shards of ManifestShardUsers records, each with its own CRC-32C,
// plus an optional per-record CRC table. It exists so a reader can
// validate and fetch ONE user's record in O(record) — OpenUser checks
// the manifest's self-CRC, the snapshot header, and the containing
// shard's checksum, never touching any other shard's payload bytes —
// and so independently built shards can be verified piecemeal.
//
// # Manifest layout
//
// All integers little-endian; the whole file is self-checksummed:
//
//	offset 0    magic "RPWSMAN1" (8 bytes)
//	offset 8    header: 13 × uint64
//	              fields 0–9: identical to the snapshot header
//	              (headerVersion … binsPerWeek), then payloadFloats,
//	              shardUsers (= ManifestShardUsers), flags
//	              (bit 0: per-record CRC table present)
//	then        ceil(users/shardUsers) × uint32 shard CRC-32Cs
//	then        users × uint32 record CRC-32Cs (iff flag bit 0)
//	then        uint32 self-CRC-32C of everything above
//
// The shard granularity is a package constant, deliberately
// independent of how the snapshot was built (single writer, in-process
// pool, merged multi-process parts): every build strategy emits a
// byte-identical manifest for the same key.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/features"
)

const (
	manifestMagic  = "RPWSMAN1"
	manifestSuffix = ".manifest"

	manifestFields   = 13
	manifestHdrBytes = 8 + manifestFields*8

	// manifestFlagRecordCRCs marks a manifest carrying the per-record
	// CRC table (4 bytes/user); every sealed store emits it.
	manifestFlagRecordCRCs = 1 << 0
)

// ManifestShardUsers is the manifest's integrity granularity: users
// per checksummed shard. 128 keeps the validated span of an OpenUser
// read ~156× smaller than the full payload at 20k users while the
// manifest itself stays a few KB.
const ManifestShardUsers = 128

// ManifestShards returns the shard count for a population.
func ManifestShards(users int) int {
	return (users + ManifestShardUsers - 1) / ManifestShardUsers
}

// ManifestPath returns the manifest sidecar path of the key under dir.
func (k Key) ManifestPath(dir string) string { return k.Path(dir) + manifestSuffix }

func encodeManifest(key Key, shardCRCs, recCRCs []uint32) []byte {
	var flags uint64
	if len(recCRCs) > 0 {
		flags |= manifestFlagRecordCRCs
	}
	buf := encodeHead(manifestMagic, key.headFields(ManifestShardUsers, flags))
	buf = append(buf, encodeCRCTable(shardCRCs)...)
	buf = append(buf, encodeCRCTable(recCRCs)...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// readManifest loads and fully validates a manifest: magic, self-CRC,
// every key field, shard granularity and table sizes. It returns the
// shard CRC table and the per-record CRC table (nil when absent).
func readManifest(path string, key Key) (shardCRCs, recCRCs []uint32, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err // fs.ErrNotExist on a manifest-less store
	}
	return decodeManifest(buf, path, key)
}

// decodeManifest is readManifest over the file's bytes.
func decodeManifest(buf []byte, path string, key Key) (shardCRCs, recCRCs []uint32, err error) {
	if len(buf) < manifestHdrBytes+4 {
		return nil, nil, fmt.Errorf("snapshot: %s: manifest is %d bytes, shorter than its header", path, len(buf))
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, nil, fmt.Errorf("snapshot: manifest self-checksum %08x != trailer %08x (corrupt)", got, want)
	}
	if err := checkHead(buf, manifestMagic, "manifest", key.headFields(ManifestShardUsers), "shard granularity"); err != nil {
		return nil, nil, err
	}
	flags := headField(buf, 12)
	if flags&^manifestFlagRecordCRCs != 0 {
		return nil, nil, fmt.Errorf("snapshot: manifest flags %#x carry unknown bits", flags)
	}
	nShards := ManifestShards(key.Users)
	wantLen := manifestHdrBytes + 4*nShards + 4
	if flags&manifestFlagRecordCRCs != 0 {
		wantLen += 4 * key.Users
	}
	if len(buf) != wantLen {
		return nil, nil, fmt.Errorf("snapshot: manifest is %d bytes, want %d (truncated or foreign)", len(buf), wantLen)
	}
	tables := decodeCRCTable(body[manifestHdrBytes:])
	shardCRCs = tables[:nShards]
	if flags&manifestFlagRecordCRCs != 0 {
		recCRCs = tables[nShards:]
	}
	return shardCRCs, recCRCs, nil
}

// UserRecord is one user's record fetched by OpenUser: an owned copy,
// valid indefinitely, with the same view accessors as Snapshot minus
// the mapping (nothing to Close).
type UserRecord struct {
	key Key
	lay Layout
	u   int
	rec []float64
}

// Key returns the key the record was opened (and validated) under.
func (r *UserRecord) Key() Key { return r.key }

// Layout returns the payload geometry of the record's store.
func (r *UserRecord) Layout() Layout { return r.lay }

// User returns the record's user index.
func (r *UserRecord) User() int { return r.u }

// Record returns the whole record (rows ∥ sorted columns ∥ day views).
func (r *UserRecord) Record() []float64 { return r.rec }

// Rows returns the matrix rows (bin-major, canonical feature order).
func (r *UserRecord) Rows() [][features.NumFeatures]float64 { return r.lay.RowsOf(r.rec) }

// SortedColumn returns the sorted (week, feature) column.
func (r *UserRecord) SortedColumn(week, f int) []float64 { return r.lay.sortedColumn(r.rec, week, f) }

// DayColumns returns the (week, feature) day view: 7 per-day sorted
// slices sharing one contiguous run of the record.
func (r *UserRecord) DayColumns(week, f int) [][]float64 { return r.lay.dayColumns(r.rec, week, f) }

// OpenUser reads one user's record in O(record work, one-shard I/O):
// it validates the manifest (self-CRC + every key field), the snapshot
// header and file size, then streams ONLY the manifest shard
// containing u — verifying that shard's CRC-32C and, when the manifest
// carries the per-record table, the record's own CRC — without mapping
// the file or touching any other shard's payload bytes. A store
// without a manifest (pre-manifest builds) returns an error; callers
// fall back to the fully validated Open.
//
// Unlike the Snapshot accessors, which panic on programmer-error
// indices into an already-opened store, OpenUser is the front door for
// externally supplied user IDs (hidsd -host), so an out-of-range u is
// an error naming the index and the store's geometry.
func OpenUser(dir string, key Key, u int) (*UserRecord, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	lay := key.Layout()
	if u < 0 || u >= lay.Users {
		return nil, fmt.Errorf("snapshot: user %d outside store population [0, %d) (weeks=%d binsPerWeek=%d)",
			u, lay.Users, lay.Weeks, lay.BinsPerWeek)
	}
	shardCRCs, recCRCs, err := readManifest(key.ManifestPath(dir), key)
	if err != nil {
		return nil, err
	}
	f, _, err := openStore(dir, key)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rf := lay.RecordFloats()
	si := u / ManifestShardUsers
	lo := si * ManifestShardUsers
	hi := lo + ManifestShardUsers
	if hi > lay.Users {
		hi = lay.Users
	}
	if _, err := f.Seek(int64(headerBytes)+int64(lo)*int64(rf)*8, io.SeekStart); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	rec := make([]float64, rf)
	scratch := make([]float64, rf)
	crc := uint32(0)
	for idx := lo; idx < hi; idx++ {
		dst := scratch
		if idx == u {
			dst = rec
		}
		b := floatBytes(dst)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		crc = crc32.Update(crc, crcTable, b)
	}
	if crc != shardCRCs[si] {
		return nil, fmt.Errorf("snapshot: shard %d (users [%d, %d)) checksum %08x != manifest %08x (corrupt)",
			si, lo, hi, crc, shardCRCs[si])
	}
	if recCRCs != nil {
		if got := crc32.Checksum(floatBytes(rec), crcTable); got != recCRCs[u] {
			return nil, fmt.Errorf("snapshot: user %d record checksum %08x != manifest %08x (corrupt)", u, got, recCRCs[u])
		}
	}
	return &UserRecord{key: key, lay: lay, u: u, rec: rec}, nil
}
