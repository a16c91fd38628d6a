package snapshot

// Chunked part transfer: the primitives a remote-build transport uses
// to move a sealed part file between hosts without ever trusting the
// wire. A PartServer serves a sealed part in CRC-checked chunks at
// arbitrary offsets; a PartReceiver reassembles them into a temp file
// and seals it with the same commit helper as ShardWriter,
// refusing to commit until every byte of the declared size has
// arrived and the running checksum matches the declared whole-file
// CRC.
//
// Resume is the point of the offset interface: a receiver survives
// any number of connection resets — and even a switch to a different
// host, because part builds are deterministic and every seal of a
// range is byte-identical — by re-fetching from Offset(), so a reset
// mid-transfer costs only the missing tail, never the whole part.
// Restreamed() accounts the bytes that arrived more than once.

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// PartServer serves one sealed part file in CRC-checked chunks. Open
// computes the whole-file CRC-32C up front (one streaming pass) so a
// receiver can pin the transfer's end state before the first chunk.
type PartServer struct {
	f    *os.File
	size int64
	crc  uint32
}

// OpenPartServer opens the sealed part for users [lo, hi) of key
// under dir. The part must exist and have the sealed size; deeper
// soundness (header, tables, payload CRC) stays VerifyPart's job —
// the transfer layer only guarantees the receiver gets the file's
// exact bytes.
func OpenPartServer(dir string, key Key, lo, hi int) (*PartServer, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	f, err := os.Open(key.PartPath(dir, lo, hi))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if want := key.partSize(lo, hi); st.Size() != want {
		f.Close()
		return nil, fmt.Errorf("snapshot: part %s is %d bytes, want %d (truncated or foreign)",
			filepath.Base(f.Name()), st.Size(), want)
	}
	crc, err := crcOf(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &PartServer{f: f, size: st.Size(), crc: crc}, nil
}

// Size returns the sealed part's total byte size.
func (s *PartServer) Size() int64 { return s.size }

// CRC returns the CRC-32C of the whole sealed file.
func (s *PartServer) CRC() uint32 { return s.crc }

// ChunkAt reads up to n bytes at offset off (clamped to the file
// end) and returns them with their CRC-32C. buf, when large enough,
// backs the returned slice; a short or nil buf allocates.
func (s *PartServer) ChunkAt(off int64, n int, buf []byte) (data []byte, crc uint32, err error) {
	if off < 0 || off >= s.size {
		return nil, 0, fmt.Errorf("snapshot: chunk offset %d outside part of %d bytes", off, s.size)
	}
	if n <= 0 {
		return nil, 0, fmt.Errorf("snapshot: chunk size %d invalid", n)
	}
	if rem := s.size - off; int64(n) > rem {
		n = int(rem)
	}
	if len(buf) < n {
		buf = make([]byte, n)
	}
	if _, err := s.f.ReadAt(buf[:n], off); err != nil {
		return nil, 0, fmt.Errorf("snapshot: %w", err)
	}
	return buf[:n], crc32.Checksum(buf[:n], crcTable), nil
}

// Close releases the underlying file.
func (s *PartServer) Close() error { return s.f.Close() }

// PartReceiver reassembles a part file from chunks into a temp file
// next to its final path, committing it only once every
// byte has arrived and the running CRC matches the expected whole-file
// checksum. It is connection-agnostic state: keep one receiver alive
// across reconnects (or host switches) and resume fetching at
// Offset().
type PartReceiver struct {
	*tempFile
	expectSet  bool
	size       int64  // declared total size
	crc        uint32 // declared whole-file CRC-32C
	received   int64  // contiguous prefix written so far
	runCRC     uint32 // CRC-32C of bytes [0, received)
	restreamed int64  // chunk bytes that re-covered already-received ground
}

// NewPartReceiver opens a receiver for the part covering users
// [lo, hi) of key under dir (created if missing). The temp file uses
// the store's ".tmp" convention, so a crashed receiver is swept by the
// next build and never mistaken for a sealed part.
func NewPartReceiver(dir string, key Key, lo, hi int) (*PartReceiver, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > key.Users {
		return nil, fmt.Errorf("snapshot: part range [%d, %d) invalid for %d users", lo, hi, key.Users)
	}
	t, err := newTempFile(key.PartPath(dir, lo, hi))
	if err != nil {
		return nil, err
	}
	return &PartReceiver{tempFile: t}, nil
}

// Expect declares the transfer's end state: total sealed size and
// whole-file CRC-32C. Calling it again with the same values is a
// no-op (every reconnect re-declares); different values discard any
// partial data and restart from offset zero — deterministic builds
// make that unreachable for honest peers, but a receiver must never
// splice two disagreeing transfers together.
func (r *PartReceiver) Expect(size int64, crc uint32) error {
	if r.done {
		return fmt.Errorf("snapshot: receiver already committed")
	}
	if size <= 0 {
		return fmt.Errorf("snapshot: expected part size %d invalid", size)
	}
	if r.expectSet && (size != r.size || crc != r.crc) {
		if err := r.f.Truncate(0); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		r.received, r.runCRC = 0, 0
	}
	r.expectSet, r.size, r.crc = true, size, crc
	return nil
}

// Offset returns where the next fetch should start: the end of the
// verified contiguous prefix.
func (r *PartReceiver) Offset() int64 { return r.received }

// Restreamed returns how many chunk bytes re-covered ground that had
// already been received — the cost of resets, measured in bytes.
func (r *PartReceiver) Restreamed() int64 { return r.restreamed }

// WriteChunk verifies one chunk against its CRC and folds it into the
// file. Chunks must extend the contiguous prefix: off may sit at or
// before Offset() (a re-delivered chunk re-covers verified ground and
// is counted restreamed) but never beyond it — the receiver refuses
// gaps, because the running CRC can only cover a prefix.
func (r *PartReceiver) WriteChunk(off int64, data []byte, crc uint32) error {
	if r.done {
		return fmt.Errorf("snapshot: receiver already committed")
	}
	if !r.expectSet {
		return fmt.Errorf("snapshot: WriteChunk before Expect")
	}
	if len(data) == 0 {
		return fmt.Errorf("snapshot: empty chunk")
	}
	if got := crc32.Checksum(data, crcTable); got != crc {
		return fmt.Errorf("snapshot: chunk at %d checksum %08x != declared %08x (corrupt in flight)", off, got, crc)
	}
	if off < 0 || off > r.received {
		return fmt.Errorf("snapshot: chunk at %d leaves a gap (have %d contiguous bytes)", off, r.received)
	}
	end := off + int64(len(data))
	if end > r.size {
		return fmt.Errorf("snapshot: chunk at %d runs to %d, past declared size %d", off, end, r.size)
	}
	r.restreamed += min(r.received, end) - off
	if end <= r.received {
		return nil // entirely re-covered ground; bytes are already sealed into runCRC
	}
	if _, err := r.f.WriteAt(data, off); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	r.runCRC = crc32.Update(r.runCRC, crcTable, data[r.received-off:])
	r.received = end
	return nil
}

// Commit seals the received part: every declared byte must have
// arrived and the running CRC must equal the declared whole-file CRC.
// On success the temp file is committed to the part path — from then
// on it is indistinguishable from a part sealed locally, and
// VerifyPart remains the end-to-end trust gate. Abort discards the
// partial transfer instead.
func (r *PartReceiver) Commit() error {
	if r.done {
		return fmt.Errorf("snapshot: receiver already committed")
	}
	if !r.expectSet || r.received != r.size {
		return fmt.Errorf("snapshot: commit with %d of %d bytes received", r.received, r.size)
	}
	if r.runCRC != r.crc {
		return fmt.Errorf("snapshot: received part checksum %08x != declared %08x", r.runCRC, r.crc)
	}
	return r.commit(nil)
}
