package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"
)

// Native fuzz targets for the two decoders a sealed store's writers
// feed. The seed corpora under testdata/fuzz were cut from a sealed
// 3-user store of fuzzKey: its manifest, and its users as the parts
// [0, 1) and [1, 3).

// fuzzKey is the key of the store the seed corpora come from: one
// week of daily bins, so a record is 126 floats.
func fuzzKey() Key { return testKey(3, 1, 24*time.Hour) }

// FuzzReadManifest feeds arbitrary bytes to the manifest decoder. With
// fixCRC the self-checksum trailer is recomputed first, so mutations
// also reach the checks behind it. Whatever the decoder accepts must
// describe the key's geometry and re-encode to the exact input bytes.
func FuzzReadManifest(f *testing.F) {
	key := fuzzKey()
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= 4 {
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, crcTable))
		}
		shards, recs, err := decodeManifest(data, "fuzz", key)
		if err != nil {
			return
		}
		if len(shards) != ManifestShards(key.Users) || (recs != nil && len(recs) != key.Users) {
			t.Fatalf("accepted manifest has %d shard and %d record CRCs for %d users", len(shards), len(recs), key.Users)
		}
		if got := encodeManifest(key, shards, recs); !bytes.Equal(got, data) {
			t.Fatalf("accepted manifest does not re-encode to its own bytes")
		}
	})
}

// FuzzReadPartMeta feeds arbitrary bytes, as the part file for users
// [lo, hi), to the part header and record-CRC table decoder. With
// fixCRC the header's table and payload checksums are recomputed from
// the table first, so mutations also reach the checks behind them.
// Whatever the decoder accepts must carry one record CRC per user of
// the range, folding to the payload checksum its header declares.
func FuzzReadPartMeta(f *testing.F) {
	key := fuzzKey()
	recShift := recordShift(key.Layout())
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint8, fixCRC bool) {
		p := PartInfo{Path: "fuzz", Lo: int(lo), Hi: int(hi)}
		tableOff := partHdrBytes + (p.Hi-p.Lo)*key.Layout().RecordFloats()*8
		if fixCRC && p.Hi > p.Lo && int64(len(data)) == key.partSize(p.Lo, p.Hi) {
			table := data[tableOff:]
			recs := make([]uint32, len(table)/4)
			for i := range recs {
				recs[i] = binary.LittleEndian.Uint32(table[4*i:])
			}
			binary.LittleEndian.PutUint64(data[8+14*8:], uint64(recShift.fold(recs)))
			binary.LittleEndian.PutUint64(data[8+15*8:], uint64(crc32.Checksum(table, crcTable)))
		}
		crc, recs, err := decodePartMeta(bytes.NewReader(data), int64(len(data)), key, p, &recShift)
		if err != nil {
			return
		}
		if len(recs) != p.Hi-p.Lo || recShift.fold(recs) != crc {
			t.Fatalf("accepted part [%d, %d) has %d record CRCs folding to %08x, header says %08x",
				p.Lo, p.Hi, len(recs), recShift.fold(recs), crc)
		}
		want := key.encodePartHeader(p.Lo, p.Hi, crc, crc32.Checksum(data[tableOff:], crcTable))
		if !bytes.Equal(want, data[:partHdrBytes]) {
			t.Fatalf("accepted part header does not re-encode to its own bytes")
		}
	})
}
