package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSpliceAndStreamingMergesByteIdentical pins the three build
// strategies against each other: one Writer, the splice merge, and
// the streaming (replay-through-a-Writer) merge must seal
// byte-identical .snap AND .manifest files, including part boundaries
// that cross the manifest's 128-user integrity shards.
func TestSpliceAndStreamingMergesByteIdentical(t *testing.T) {
	key := testKey(ManifestShardUsers+29, 1, 6*time.Hour)
	singleDir, spliceDir, streamDir := t.TempDir(), t.TempDir(), t.TempDir()
	payload := fillTestRecords(t, singleDir, key)

	cuts := []int{0, 31, ManifestShardUsers + 2, key.Users}
	sealParts(t, spliceDir, key, payload, cuts)
	sealParts(t, streamDir, key, payload, cuts)
	if n, err := MergeShards(spliceDir, key); err != nil || n != 3 {
		t.Fatalf("MergeShards = %d, %v", n, err)
	}
	if n, err := MergeShardsStreaming(streamDir, key); err != nil || n != 3 {
		t.Fatalf("MergeShardsStreaming = %d, %v", n, err)
	}
	for _, suffix := range []string{"", manifestSuffix} {
		want, err := os.ReadFile(key.Path(singleDir) + suffix)
		if err != nil {
			t.Fatal(err)
		}
		for name, dir := range map[string]string{"splice": spliceDir, "streaming": streamDir} {
			got, err := os.ReadFile(key.Path(dir) + suffix)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s merge %q differs from single writer (%d vs %d bytes)", name, ".snap"+suffix, len(got), len(want))
			}
		}
	}
	// Both merged stores open and validate end to end.
	for _, dir := range []string{spliceDir, streamDir} {
		s, err := Open(dir, key)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
}

// partTableOff returns the file offset of a part's record-CRC table.
func partTableOff(key Key, lo, hi int) int {
	return partHdrBytes + (hi-lo)*key.Layout().RecordFloats()*8
}

// TestMergeRejectsCorruptTable flips a bit in a part's record-CRC
// table: both merges must refuse to seal.
func TestMergeRejectsCorruptTable(t *testing.T) {
	key := testKey(8, 1, 6*time.Hour)
	payload := testPayload(key)
	for name, merge := range map[string]func(string, Key) (int, error){
		"splice":    MergeShards,
		"streaming": MergeShardsStreaming,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sealParts(t, dir, key, payload, []int{0, 4, 8})
			corrupt(t, key.PartPath(dir, 0, 4), func(b []byte) []byte {
				b[partTableOff(key, 0, 4)+2] ^= 0x10
				return b
			})
			if _, err := merge(dir, key); err == nil {
				t.Fatal("merge accepted a corrupt record-CRC table")
			} else {
				t.Log(err)
			}
			if _, err := os.Stat(key.Path(dir)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("failed merge left a sealed snapshot: %v", err)
			}
		})
	}
}

// TestMergeRejectsTablePayloadSkew forges a part whose table is
// internally consistent (its own checksum matches) but disagrees with
// the payload: the splice's fold-vs-payload cross-check must catch it
// rather than sealing a manifest derived from the wrong record CRCs.
func TestMergeRejectsTablePayloadSkew(t *testing.T) {
	key := testKey(8, 1, 6*time.Hour)
	payload := testPayload(key)
	dir := t.TempDir()
	sealParts(t, dir, key, payload, []int{0, 4, 8})
	corrupt(t, key.PartPath(dir, 4, 8), func(b []byte) []byte {
		// Swap two table entries and re-seal the table's own checksum:
		// tableCRC verifies, but the fold no longer equals partCRC.
		off := partTableOff(key, 4, 8)
		e0 := binary.LittleEndian.Uint32(b[off:])
		e1 := binary.LittleEndian.Uint32(b[off+4:])
		if e0 == e1 {
			t.Fatal("test needs distinct record CRCs to swap")
		}
		binary.LittleEndian.PutUint32(b[off:], e1)
		binary.LittleEndian.PutUint32(b[off+4:], e0)
		table := b[off:]
		binary.LittleEndian.PutUint64(b[8+8*15:], uint64(crc32.Checksum(table, crcTable)))
		return b
	})
	if _, err := MergeShards(dir, key); err == nil {
		t.Fatal("splice merge accepted a table that disagrees with its payload")
	} else {
		t.Log(err)
	}
}

// TestDropUserRangeKeepsData pins that releasing a shard's pages is
// non-destructive: every record rereads bit-identical after the drop.
func TestDropUserRangeKeepsData(t *testing.T) {
	key := testKey(12, 1, 6*time.Hour)
	dir := t.TempDir()
	payload := fillTestRecords(t, dir, key)
	s, err := Open(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rf := key.Layout().RecordFloats()
	touch := func() {
		for u := 0; u < key.Users; u++ {
			rec := s.User(u)
			for _, i := range []int{0, 7, rf - 1} {
				if rec[i] != payload[u*rf+i] {
					t.Fatalf("user %d float %d = %g, want %g", u, i, rec[i], payload[u*rf+i])
				}
			}
		}
	}
	touch()
	s.DropUserRange(0, 5)
	s.DropUserRange(5, key.Users)
	// Degenerate ranges are no-ops.
	s.DropUserRange(-3, 2)
	s.DropUserRange(9, 9)
	s.DropUserRange(10, 99)
	touch()
	s.Close()
	s.DropUserRange(0, key.Users) // closed: must not fault
}

// TestCutRanges pins the weighted cutter's contract: exact tiling,
// non-empty ranges, determinism, graceful degeneration to equal
// counts, and better heavy-tail balance than equal-count cuts.
func TestCutRanges(t *testing.T) {
	tile := func(t *testing.T, cuts [][2]int, n, k int) {
		t.Helper()
		if len(cuts) != k {
			t.Fatalf("%d ranges, want %d", len(cuts), k)
		}
		next := 0
		for _, r := range cuts {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("ranges %v do not tile [0, %d) with non-empty pieces", cuts, n)
			}
			next = r[1]
		}
		if next != n {
			t.Fatalf("ranges %v stop at %d, want %d", cuts, next, n)
		}
	}

	t.Run("degenerate", func(t *testing.T) {
		if got := CutRanges(nil, 3); got != nil {
			t.Fatalf("empty weights: %v", got)
		}
		tile(t, CutRanges(make([]float64, 5), 0), 5, 1)  // k clamped up
		tile(t, CutRanges(make([]float64, 3), 10), 3, 3) // k clamped to n
		// Zero and pathological weights fall back to equal counts —
		// the historical i*n/k arithmetic, pinned exactly.
		w := []float64{0, math.NaN(), -4, 0, 0, 0, 0}
		got := CutRanges(w, 3)
		tile(t, got, len(w), 3)
		for i, r := range got {
			want := [2]int{i * len(w) / 3, (i + 1) * len(w) / 3}
			if r != want {
				t.Fatalf("zero-weight cut %d = %v, want equal-count %v", i, r, want)
			}
		}
	})

	t.Run("heavy tail", func(t *testing.T) {
		// 1 user in 8 is 40× heavier — the shape EXPERIMENTS.md
		// measured the ~1.6× equal-cut skew on.
		n, k := 96, 4
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = 1
			if i%8 == 3 {
				w[i] = 40
			}
			total += w[i]
		}
		cuts := CutRanges(w, k)
		tile(t, cuts, n, k)
		maxLoad := 0.0
		for _, r := range cuts {
			load := 0.0
			for i := r[0]; i < r[1]; i++ {
				load += w[i]
			}
			if load > maxLoad {
				maxLoad = load
			}
		}
		if imb := maxLoad / (total / float64(k)); imb > 1.15 {
			t.Fatalf("weighted cut imbalance %.2f×, want ≤ 1.15×", imb)
		}
		// Deterministic.
		again := CutRanges(w, k)
		for i := range cuts {
			if cuts[i] != again[i] {
				t.Fatal("CutRanges is not deterministic")
			}
		}
	})

	t.Run("single heavy user", func(t *testing.T) {
		// One user dwarfing everything must not starve other ranges.
		w := make([]float64, 10)
		for i := range w {
			w[i] = 1
		}
		w[0] = 1e9
		tile(t, CutRanges(w, 4), 10, 4)
		w[9] = 1e9
		tile(t, CutRanges(w, 4), 10, 4)
	})
}

// MergeShardsStreaming is the oracle MergeShards is pinned against: it
// replays every part record through an ordinary Writer — recomputing
// every record CRC from the payload floats instead of trusting the
// parts' tables — and seals the snapshot + manifest a single writer
// would. The splice's CRC algebra must reproduce its bytes exactly. On
// success the consumed part files are removed.
func MergeShardsStreaming(dir string, key Key) (int, error) {
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
	w, err := Create(dir, key)
	if err != nil {
		return 0, err
	}
	lay := key.Layout()
	rf := lay.RecordFloats()
	// Chunked whole-record copies through a float64 buffer: reading
	// into floatBytes of a []float64 keeps the 8-byte alignment
	// AppendUsers' reinterpretation needs.
	chunkRecs := (1 << 20) / (rf * 8)
	if chunkRecs < 1 {
		chunkRecs = 1
	}
	buf := make([]float64, chunkRecs*rf)
	for _, p := range parts {
		if err := mergeOnePart(w, key, p, buf); err != nil {
			w.Abort()
			return 0, err
		}
	}
	if err := w.Finish(); err != nil {
		return 0, err
	}
	for _, p := range parts {
		_ = os.Remove(p.Path)
	}
	return len(parts), nil
}

func mergeOnePart(w *Writer, key Key, p PartInfo, buf []float64) error {
	f, err := os.Open(p.Path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	rf := key.Layout().RecordFloats()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if want := key.partSize(p.Lo, p.Hi); st.Size() != want {
		return fmt.Errorf("snapshot: part %s is %d bytes, want %d (truncated or foreign)", filepath.Base(p.Path), st.Size(), want)
	}
	var hdr [partHdrBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	checksum, tableCRC, err := key.checkPartHeader(hdr[:], p.Lo, p.Hi)
	if err != nil {
		return fmt.Errorf("snapshot: part %s: %w", filepath.Base(p.Path), err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	crc := uint32(0)
	for rem := p.Hi - p.Lo; rem > 0; {
		n := len(buf) / rf
		if n > rem {
			n = rem
		}
		chunk := buf[:n*rf]
		b := floatBytes(chunk)
		if _, err := io.ReadFull(br, b); err != nil {
			return fmt.Errorf("snapshot: part %s: %w", filepath.Base(p.Path), err)
		}
		crc = crc32.Update(crc, crcTable, b)
		if err := w.AppendUsers(chunk); err != nil {
			return err
		}
		rem -= n
	}
	if uint64(crc) != checksum {
		return fmt.Errorf("snapshot: part %s payload checksum %08x != header %08x (corrupt)", filepath.Base(p.Path), crc, checksum)
	}
	table := make([]byte, 4*(p.Hi-p.Lo))
	if _, err := io.ReadFull(br, table); err != nil {
		return fmt.Errorf("snapshot: part %s table: %w", filepath.Base(p.Path), err)
	}
	if got := crc32.Checksum(table, crcTable); uint64(got) != tableCRC {
		return fmt.Errorf("snapshot: part %s record table checksum %08x != header %08x (corrupt)", filepath.Base(p.Path), got, tableCRC)
	}
	return nil
}
