package netsim

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/xrand"
)

// corruptions returns base followed by trials seeded corruptions of
// it: 1-8 random bytes flipped (possibly in the header), and half of
// them truncated at a random length.
func corruptions(base []byte, seed uint64, trials int) [][]byte {
	out := [][]byte{base}
	rng := xrand.New(seed)
	for trial := 0; trial < trials; trial++ {
		data := append([]byte(nil), base...)
		for k := 0; k <= rng.Intn(8); k++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(2) == 0 {
			data = data[:rng.Intn(len(data)+1)]
		}
		out = append(out, data)
	}
	return out
}

// FuzzTraceReader feeds arbitrary bytes to the .etr reader, seeded
// with a valid 50-record trace and 200 corruptions of it: whatever the
// bytes, the reader must return records or errors, never panic.
func FuzzTraceReader(f *testing.F) {
	var valid bytes.Buffer
	tw, _ := NewTraceWriter(&valid, 7)
	for i := 0; i < 50; i++ {
		r := sampleRecord()
		r.Time += int64(i) * 1000
		_ = tw.Write(r)
	}
	_ = tw.Flush()
	for _, data := range corruptions(valid.Bytes(), 99, 200) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return // rejected header: fine
		}
		var rec Record
		for n := 0; n < 1000; n++ {
			if err := tr.Next(&rec); err != nil {
				return // EOF or corruption error: fine
			}
		}
	})
}

// FuzzPcapReader does the same for the pcap reader and the IPv4
// decoder behind it, seeded with a valid 20-packet capture and 200
// corruptions of it.
func FuzzPcapReader(f *testing.F) {
	var valid bytes.Buffer
	pw, _ := NewPcapWriter(&valid, 0)
	for i := 0; i < 20; i++ {
		_ = pw.Write(sampleRecord())
	}
	_ = pw.Flush()
	for _, data := range corruptions(valid.Bytes(), 101, 200) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pr, err := NewPcapReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for n := 0; n < 1000; n++ {
			pkt, err := pr.Next()
			if err != nil {
				return
			}
			// Decoding arbitrary bytes must not panic either.
			_, _ = DecodeIPv4(pkt.Data)
		}
	})
}

// TestDecodeIPv4ArbitraryBytes hammers the decoder with random
// buffers of every small length.
func TestDecodeIPv4ArbitraryBytes(t *testing.T) {
	rng := xrand.New(103)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		_, _ = DecodeIPv4(buf) // must not panic
	}
}

// TestFaultConnPrefixFuzz fuzzes the delivery invariant the protocol
// layers build on (fault_test.go pins it for one fixed plan): across
// drop-only, reset-only and mixed plans, random-size writes, and
// repeated redials, the byte stream the peer receives is always an
// exact prefix of the byte stream written — drops swallow whole
// writes, resets deliver a prefix, nothing is ever reordered,
// duplicated, or corrupted in-stream.
func TestFaultConnPrefixFuzz(t *testing.T) {
	plans := []FaultPlan{
		{Seed: 1, DropProb: 0.3},
		{Seed: 2, ResetProb: 0.3},
		{Seed: 3, DropProb: 0.2, ResetProb: 0.2},
		{Seed: 4, DropProb: 0.15, ResetProb: 0.15,
			Delay: 5 * time.Microsecond, Jitter: 10 * time.Microsecond},
	}
	for pi, plan := range plans {
		mem := NewMemNetwork()
		ln, err := mem.Listen("sink")
		if err != nil {
			t.Fatal(err)
		}
		fnet, err := NewFaultNetwork(mem, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(uint64(1000 + pi))
		for trial := 0; trial < 25; trial++ {
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
			recvCh := make(chan []byte, 1)
			go func() {
				var got []byte
				buf := make([]byte, 256)
				for {
					n, err := peer.Read(buf)
					got = append(got, buf[:n]...)
					if err != nil {
						recvCh <- got
						return
					}
				}
			}()
			// Write random-size random-content chunks until a fault
			// kills the connection (or the budget runs out). Every
			// chunk counts as attempted in full: a reset's partial
			// delivery is still a prefix of it.
			var attempted []byte
			for w := 0; w < 40; w++ {
				chunk := make([]byte, 1+rng.Intn(400))
				for i := range chunk {
					chunk[i] = byte(rng.Intn(256))
				}
				attempted = append(attempted, chunk...)
				if _, err := conn.Write(chunk); err != nil {
					break
				}
			}
			_ = conn.Close()
			got := <-recvCh
			_ = peer.Close()
			if len(got) > len(attempted) {
				t.Fatalf("plan %d trial %d: received %d bytes, only %d written",
					pi, trial, len(got), len(attempted))
			}
			if !bytes.Equal(got, attempted[:len(got)]) {
				t.Fatalf("plan %d trial %d: received %d bytes are not a prefix of the written stream",
					pi, trial, len(got))
			}
		}
		_ = ln.Close()
	}
}

// TestTraceReaderStopsAtEOFExactly verifies the reader consumes
// exactly the bytes it needs and leaves any trailing garbage alone.
func TestTraceReaderStopsAtEOFExactly(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 1)
	_ = tw.Write(sampleRecord())
	_ = tw.Flush()
	r := bytes.NewReader(buf.Bytes())
	tr, err := NewTraceReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := tr.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if err := tr.Next(&rec); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}
