// Package console implements the enterprise HIDS management plane the
// paper assumes (§1, §4): end hosts "are typically configured to
// interact with centralized IT management", ship their traffic
// probability distributions to a central console, receive thresholds
// computed by the enterprise policy, and "batch alerts that are sent
// periodically to IT".
//
// The package provides the wire protocol, the central console server
// (Server) and the end-host agent (Agent). Transport is any
// net.Conn; production use is TCP, tests also drive net.Pipe.
//
// # Wire format
//
// Every message is a frame:
//
//	uint32 little-endian body length (at most MaxFrame)
//	uint8  message type
//	body
//
// A body is its message's fields in declaration order:
//
//   - an integer is a varint: unsigned for host IDs and sequence
//     numbers, zig-zag signed for int fields;
//   - a float64 is the uvarint of its IEEE-754 bits with the bytes
//     reversed. This is bit-exact (±Inf, NaN payloads and -0 survive),
//     and puts the exponent and high mantissa bytes low, so the
//     integral feature counts the plane mostly carries take 2–3 bytes;
//     any value takes at most 10;
//   - a string or slice is a uvarint count, then its elements;
//   - a bool is the varint 0 or 1.
//
// Decoding is strict. Every varint must be minimal, a count is checked
// against the bytes left before anything is allocated, and trailing
// bytes are an error. An accepted body therefore re-encodes to exactly
// itself, and a JSON frame from a peer of the earlier protocol is
// rejected, never misread. There is one encoding and no version
// negotiation.
//
// The plane spoke JSON until the 350-host fleet replay was profiled:
// encoding/json took about 80% of the replay's CPU, decoding float
// arrays and alert structs and marshaling them, and the replay's JSON
// traffic was 12.2 MB where the binary bodies take 4.6 MB, most of the
// difference in the alert batches' field names.
package console

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"repro/internal/features"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types.
const (
	// MsgHello is the agent's first message: host identity.
	MsgHello MsgType = iota + 1
	// MsgDistUpload carries one feature's training distribution from
	// an agent to the console.
	MsgDistUpload
	// MsgThresholds carries the console's per-feature thresholds to
	// one agent.
	MsgThresholds
	// MsgAlertBatch carries a batch of alerts from an agent.
	MsgAlertBatch
	// MsgAck acknowledges a message that needs acknowledgment.
	MsgAck
	// MsgError reports a protocol-level failure.
	MsgError
	// MsgPing is a one-way agent keepalive: the console refreshes the
	// host's liveness record and sends nothing back. Being one-way is
	// load-bearing — acknowledged RPCs are serialized per connection,
	// so a ping must never inject an ack into that FIFO stream.
	MsgPing
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgDistUpload:
		return "dist-upload"
	case MsgThresholds:
		return "thresholds"
	case MsgAlertBatch:
		return "alert-batch"
	case MsgAck:
		return "ack"
	case MsgError:
		return "error"
	case MsgPing:
		return "ping"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// MaxFrame is the largest accepted payload. A week of the default
// 15-minute bins is 672 samples, at most 10 bytes each (about 7 KiB);
// even a week of 1-minute bins is under 100 KiB, so 8 MiB leaves two
// orders of magnitude of headroom.
const MaxFrame = 8 << 20

// Hello is the agent's introduction.
type Hello struct {
	// HostID is the end-host identifier (stable across reconnects).
	HostID uint32
	// Hostname is informational.
	Hostname string
	// Resume marks a self-healing redial by an agent incarnation that
	// already held a connection: its alert-batch sequence numbers
	// continue the old stream, so the console keeps the host's dedup
	// watermark. A fresh hello (Resume false) restarts the stream and
	// resets the watermark — a restarted agent process begins at 1.
	Resume bool
}

func (Hello) msgType() MsgType { return MsgHello }

func (m Hello) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(m.HostID))
	b = appendString(b, m.Hostname)
	return appendBool(b, m.Resume)
}

func (m *Hello) decodeBody(d *decoder) {
	*m = Hello{HostID: d.uint32(), Hostname: d.string(), Resume: d.bool()}
}

// DistUpload is one feature's training distribution. Samples are the
// raw per-window feature values; the console builds the empirical
// distribution (and, for homogeneous/partial policies, merges them
// across hosts — "all the individual distributions are collapsed
// into a single global distribution", §4).
type DistUpload struct {
	HostID  uint32
	Feature int
	Samples []float64
	// Epoch is the configuration epoch this upload targets: the epoch
	// the host expects its thresholds to carry. The console stores
	// uploads for the current open epoch, opens epoch e+1 when a host
	// that saw epoch e's thresholds re-uploads (weekly re-learning),
	// and idempotently acknowledges-and-drops stale epochs — which is
	// what makes a reconnecting agent's re-sent upload harmless
	// instead of wiping the fleet's training state.
	Epoch int
}

func (DistUpload) msgType() MsgType { return MsgDistUpload }

func (m DistUpload) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(m.HostID))
	b = binary.AppendVarint(b, int64(m.Feature))
	b = binary.AppendUvarint(b, uint64(len(m.Samples)))
	for _, v := range m.Samples {
		b = appendFloat(b, v)
	}
	return binary.AppendVarint(b, int64(m.Epoch))
}

func (m *DistUpload) decodeBody(d *decoder) {
	*m = DistUpload{HostID: d.uint32(), Feature: d.int()}
	if n := d.count(1); n > 0 {
		m.Samples = make([]float64, n)
		for i := range m.Samples {
			m.Samples[i] = d.float()
		}
	}
	m.Epoch = d.int()
}

// Thresholds is the console's configuration push: one threshold per
// feature, indexed by canonical feature order.
type Thresholds struct {
	// Values[f] is the alarm threshold for feature f; NaN is not
	// allowed. All six are always sent; +Inf (never alarm) is carried
	// bit-exactly like any other value.
	Values [features.NumFeatures]float64
	// Policy names the policy that produced the thresholds.
	Policy string
	// Group is the configuration group this host landed in.
	Group int
	// Epoch counts configuration rounds; the paper re-learns
	// thresholds weekly (§6.1), so a long-lived deployment sees
	// epoch 0, 1, 2, ... as training windows roll forward.
	Epoch int
}

func (Thresholds) msgType() MsgType { return MsgThresholds }

func (m Thresholds) appendBody(b []byte) []byte {
	for _, v := range m.Values {
		b = appendFloat(b, v)
	}
	b = appendString(b, m.Policy)
	b = binary.AppendVarint(b, int64(m.Group))
	return binary.AppendVarint(b, int64(m.Epoch))
}

func (m *Thresholds) decodeBody(d *decoder) {
	for f := range m.Values {
		m.Values[f] = d.float()
	}
	m.Policy, m.Group, m.Epoch = d.string(), d.int(), d.int()
}

// Alert is one threshold exceedance on one host.
type Alert struct {
	Feature   int
	Bin       int
	Value     float64
	Threshold float64
}

// alertMinBytes is the smallest encoded Alert: four one-byte fields.
const alertMinBytes = 4

// AlertBatch is the periodic alert report (§3: "alerts are generated
// and periodically sent to a central console").
type AlertBatch struct {
	HostID uint32
	Alerts []Alert
	// Seq is the agent-assigned batch sequence number, starting at 1
	// and stable across re-sends of the same batch; the console drops
	// (but still acknowledges) a sequence it has already tallied, so a
	// batch whose ack was lost in transit is never double-counted.
	// Zero means unsequenced (legacy senders) and always passes.
	Seq uint64
}

func (AlertBatch) msgType() MsgType { return MsgAlertBatch }

func (m AlertBatch) appendBody(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(m.HostID))
	b = binary.AppendUvarint(b, uint64(len(m.Alerts)))
	for _, a := range m.Alerts {
		b = binary.AppendVarint(b, int64(a.Feature))
		b = binary.AppendVarint(b, int64(a.Bin))
		b = appendFloat(b, a.Value)
		b = appendFloat(b, a.Threshold)
	}
	return binary.AppendUvarint(b, m.Seq)
}

func (m *AlertBatch) decodeBody(d *decoder) {
	*m = AlertBatch{HostID: d.uint32()}
	if n := d.count(alertMinBytes); n > 0 {
		m.Alerts = make([]Alert, n)
		for i := range m.Alerts {
			m.Alerts[i] = Alert{Feature: d.int(), Bin: d.int(), Value: d.float(), Threshold: d.float()}
		}
	}
	m.Seq = d.uvarint()
}

// Ack acknowledges receipt; Seq echoes the sender's sequence number
// when one was supplied.
type Ack struct {
	Seq uint64
}

func (Ack) msgType() MsgType { return MsgAck }

func (m Ack) appendBody(b []byte) []byte { return binary.AppendUvarint(b, m.Seq) }

func (m *Ack) decodeBody(d *decoder) { m.Seq = d.uvarint() }

// Ping is the one-way keepalive payload.
type Ping struct {
	HostID uint32
}

func (Ping) msgType() MsgType { return MsgPing }

func (m Ping) appendBody(b []byte) []byte { return binary.AppendUvarint(b, uint64(m.HostID)) }

func (m *Ping) decodeBody(d *decoder) { m.HostID = d.uint32() }

// ProtoError is a protocol-level error report.
type ProtoError struct {
	Message string
}

func (ProtoError) msgType() MsgType { return MsgError }

func (m ProtoError) appendBody(b []byte) []byte { return appendString(b, m.Message) }

func (m *ProtoError) decodeBody(d *decoder) { m.Message = d.string() }

// message is a payload the codec carries: its frame type and its body
// encoding.
type message interface {
	msgType() MsgType
	appendBody([]byte) []byte
}

// decodable is a pointer to a message, which decode fills.
type decodable interface {
	message
	decodeBody(*decoder)
}

// WriteMsg frames and writes one message. payload must be the message
// struct of type t (Hello for MsgHello, and so on).
func WriteMsg(w io.Writer, t MsgType, payload any) error {
	m, ok := payload.(message)
	if !ok || m.msgType() != t {
		return fmt.Errorf("console: %T is not a %s payload", payload, t)
	}
	// One frame, one write: a fault-injected transport (and a real
	// kernel's send path) then fails or delivers the frame as a unit,
	// never a header without its body. The body is appended behind a
	// reserved header, so the frame is built in one buffer.
	frame := m.appendBody(make([]byte, 5, 64))
	body := len(frame) - 5
	if body > MaxFrame {
		return fmt.Errorf("console: %s payload %d exceeds MaxFrame", t, body)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(body))
	frame[4] = byte(t)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("console: writing %s frame: %w", t, err)
	}
	return nil
}

// ReadMsg reads one frame and returns its type and raw payload.
func ReadMsg(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err // io.EOF propagates cleanly for shutdown
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("console: frame of %d bytes exceeds MaxFrame", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("console: reading %d-byte body: %w", n, err)
	}
	return MsgType(hdr[4]), body, nil
}

// decode decodes a payload of type t into v, a pointer to that type's
// message struct, with a console-flavored error. It is strict: see the
// package comment.
func decode(t MsgType, body []byte, v any) error {
	m, ok := v.(decodable)
	if !ok || m.msgType() != t {
		return fmt.Errorf("console: cannot decode %s into %T", t, v)
	}
	d := decoder{b: body}
	m.decodeBody(&d)
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("console: decoding %s: %w", t, d.err)
	}
	return nil
}

// appendFloat appends v's bits byte-reversed as a uvarint (see the
// package comment).
func appendFloat(b []byte, v float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v)))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder reads one body front to back. The first error sticks: later
// reads return zero values and consume nothing, so a message's decode
// reads its fields straight through and the caller checks err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// uvarint reads one minimal uvarint.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail(errors.New("truncated body"))
	case n < 0:
		d.fail(errors.New("varint overflows 64 bits"))
	case n > 1 && d.b[n-1] == 0:
		// A zero final byte adds nothing: the value had a shorter
		// encoding, and accepting this one would break re-encoding.
		d.fail(errors.New("non-minimal varint"))
	default:
		d.b = d.b[n:]
		return v
	}
	return 0
}

// int reads one zig-zag varint into an int.
func (d *decoder) int() int {
	u := d.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		d.fail(fmt.Errorf("integer %d overflows int", v))
		return 0
	}
	return int(v)
}

func (d *decoder) uint32() uint32 {
	v := d.uvarint()
	if v > math.MaxUint32 {
		d.fail(fmt.Errorf("%d overflows uint32", v))
		return 0
	}
	return uint32(v)
}

func (d *decoder) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(d.uvarint()))
}

func (d *decoder) bool() bool {
	switch v := d.uvarint(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("bool %d", v))
		return false
	}
}

// count reads a string or slice length and checks that the bytes left
// can hold that many elements of at least minBytes each, so a hostile
// count can never drive an allocation larger than the body justifies.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

func (d *decoder) string() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
