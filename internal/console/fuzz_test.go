package console

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/xrand"
)

// FuzzReadMsg feeds arbitrary bytes to the frame reader (seeds under
// testdata/fuzz/FuzzReadMsg). It must return an error or one frame,
// never panic, never hand back a body past MaxFrame, and a frame it
// accepts must re-encode to exactly the bytes it consumed.
func FuzzReadMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		typ, body, err := ReadMsg(r)
		if err != nil {
			return
		}
		if len(body) > MaxFrame {
			t.Fatalf("accepted a %d-byte body, MaxFrame is %d", len(body), MaxFrame)
		}
		frame := make([]byte, 5+len(body))
		binary.LittleEndian.PutUint32(frame, uint32(len(body)))
		frame[4] = byte(typ)
		copy(frame[5:], body)
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(frame, consumed) {
			t.Fatalf("accepted frame does not re-encode to the %d bytes it consumed", len(consumed))
		}
	})
}

// newDecodable returns a fresh message of type t, or nil for a type
// the protocol does not define.
func newDecodable(t MsgType) decodable {
	switch t {
	case MsgHello:
		return new(Hello)
	case MsgDistUpload:
		return new(DistUpload)
	case MsgThresholds:
		return new(Thresholds)
	case MsgAlertBatch:
		return new(AlertBatch)
	case MsgAck:
		return new(Ack)
	case MsgError:
		return new(ProtoError)
	case MsgPing:
		return new(Ping)
	}
	return nil
}

// FuzzDecode feeds arbitrary bodies to every message type's decoder
// (seeds under testdata/fuzz/FuzzDecode: one valid body per type and
// an upload whose count claims 2^32 samples). The decoder must never
// panic, never allocate more than the body can hold — a count is
// checked against the bytes left before anything is made — and a body
// it accepts must re-encode to exactly the same bytes.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		m := newDecodable(MsgType(typ))
		if m == nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode(MsgType(typ), body, m)
		runtime.ReadMemStats(&after)
		// Every element costs at least one body byte and at most 8 heap
		// bytes per body byte (a float64 sample; an Alert is 32 bytes
		// from at least 4), so 8×len(body) plus slack for the error and
		// the runtime's own bookkeeping bounds an honest decoder.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(body)+64<<10); got > bound {
			t.Fatalf("decoding a %d-byte %s body allocated %d bytes (bound %d)", len(body), MsgType(typ), got, bound)
		}
		if err != nil {
			return
		}
		if re := m.appendBody(nil); !bytes.Equal(re, body) {
			t.Fatalf("accepted %s body %x re-encodes to %x", MsgType(typ), body, re)
		}
	})
}

// TestServerSurvivesGarbageConnections connects raw sockets that
// write random bytes and vanish; the server must keep serving
// legitimate agents afterwards.
func TestServerSurvivesGarbageConnections(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 2,
	})
	rng := xrand.New(11)
	for trial := 0; trial < 20; trial++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(200)
		junk := make([]byte, n)
		for i := range junk {
			junk[i] = byte(rng.Intn(256))
		}
		_, _ = conn.Write(junk)
		_ = conn.Close()
	}
	// A legitimate agent still gets through.
	a, err := Dial(addr, 42, "survivor")
	if err != nil {
		t.Fatalf("legitimate agent rejected after garbage: %v", err)
	}
	defer a.Close()
	if err := a.UploadDistribution(0, []float64{1, 2, 3}); err != nil {
		t.Fatalf("upload after garbage: %v", err)
	}
}

// TestFrameStreamThroughFaults drives WriteMsg frames through a
// seeded lossy transport: because WriteMsg emits each frame as one
// write and a FaultConn delivers a strict prefix of the written
// stream, the receiver must decode an exact prefix of the sent frame
// sequence and then fail cleanly — never a torn or corrupted frame.
func TestFrameStreamThroughFaults(t *testing.T) {
	type frame struct {
		typ  MsgType
		body []byte
	}
	plans := []netsim.FaultPlan{
		{Seed: 21, DropProb: 0.25},
		{Seed: 22, ResetProb: 0.25},
		{Seed: 23, DropProb: 0.15, ResetProb: 0.15},
	}
	for pi, plan := range plans {
		mem := netsim.NewMemNetwork()
		ln, err := mem.Listen("sink")
		if err != nil {
			t.Fatal(err)
		}
		fnet, err := netsim.NewFaultNetwork(mem, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(uint64(500 + pi))
		for trial := 0; trial < 20; trial++ {
			// Accept concurrently: MemNetwork.Dial hands the server end
			// over synchronously.
			acceptCh := make(chan net.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					c = nil
				}
				acceptCh <- c
			}()
			conn, err := fnet.Dial(0, "sink")
			if err != nil {
				t.Fatal(err)
			}
			peer := <-acceptCh
			if peer == nil {
				t.Fatal("accept failed")
			}
			recvCh := make(chan []frame, 1)
			go func() {
				var got []frame
				for {
					typ, body, err := ReadMsg(peer)
					if err != nil {
						recvCh <- got
						return
					}
					got = append(got, frame{typ, body})
				}
			}()
			var sent []frame
			for w := 0; w < 30; w++ {
				var (
					typ     MsgType
					payload message
				)
				switch rng.Intn(3) {
				case 0:
					typ = MsgPing
					payload = Ping{HostID: uint32(rng.Intn(64))}
				case 1:
					typ = MsgAlertBatch
					alerts := make([]Alert, rng.Intn(5))
					for i := range alerts {
						alerts[i] = Alert{Feature: rng.Intn(6), Bin: rng.Intn(100), Value: rng.Float64()}
					}
					payload = AlertBatch{HostID: 3, Seq: uint64(w + 1), Alerts: alerts}
				default:
					typ = MsgDistUpload
					samples := make([]float64, 1+rng.Intn(20))
					for i := range samples {
						samples[i] = rng.Float64()
					}
					payload = DistUpload{HostID: 3, Feature: rng.Intn(6), Samples: samples}
				}
				sent = append(sent, frame{typ, payload.appendBody(nil)})
				if err := WriteMsg(conn, typ, payload); err != nil {
					// The frame errored mid-transport; it may have been
					// partially delivered, so it cannot count as sent
					// in full — but a FaultConn reset only delivers a
					// prefix, which ReadMsg rejects, so the receiver
					// sees at most the frames before it.
					sent = sent[:len(sent)-1]
					break
				}
			}
			_ = conn.Close()
			got := <-recvCh
			_ = peer.Close()
			// A dropped write is swallowed whole (reported as sent), so
			// the receiver may trail the sender — but only as an exact
			// frame-sequence prefix.
			if len(got) > len(sent)+1 {
				t.Fatalf("plan %d trial %d: received %d frames, sent %d", pi, trial, len(got), len(sent))
			}
			for i, f := range got {
				if i >= len(sent) {
					// The last write errored after full delivery is
					// impossible: resets deliver strict prefixes and
					// ReadMsg cannot decode a torn frame. Anything here
					// is a violation.
					t.Fatalf("plan %d trial %d: received frame %d beyond the %d cleanly sent",
						pi, trial, i, len(sent))
				}
				if f.typ != sent[i].typ || !bytes.Equal(f.body, sent[i].body) {
					t.Fatalf("plan %d trial %d: frame %d differs from the frame sent (got %s, want %s)",
						pi, trial, i, f.typ, sent[i].typ)
				}
			}
		}
		_ = ln.Close()
	}
}

// TestServerSurvivesSlowHello verifies a stalled half-open connection
// does not wedge the accept loop.
func TestServerSurvivesSlowHello(t *testing.T) {
	_, addr := startServer(t, ServerConfig{
		Policy:        policy99(core.Homogeneous{}),
		ExpectedHosts: 2,
	})
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close() // never sends a byte

	done := make(chan error, 1)
	go func() {
		a, err := Dial(addr, 7, "prompt")
		if err == nil {
			_ = a.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("prompt agent failed behind a stalled peer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("accept loop wedged by a stalled connection")
	}
}
