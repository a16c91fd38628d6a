package console

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/stats"
)

// The panic audit: a panic on any of the plane's goroutines — the
// console's per-connection handler, the agent's read loop and its
// connection manager — ends that connection only, as an error that
// carries the panic value, and the process goes on serving the next
// peer.

// logWatch is a server log a test can wait on: Logf sends each line
// to the channel, dropping lines while it is full.
type logWatch chan string

func newLogWatch() logWatch { return make(logWatch, 64) }

func (w logWatch) logf(format string, args ...any) {
	select {
	case w <- fmt.Sprintf(format, args...):
	default:
	}
}

// await waits for a line that contains every one of substrs.
func (w logWatch) await(t *testing.T, substrs ...string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case line := <-w:
			found := true
			for _, s := range substrs {
				found = found && strings.Contains(line, s)
			}
			if found {
				return
			}
		case <-timeout:
			t.Fatalf("no log line containing %q", substrs)
		}
	}
}

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// TestServerHandlerPanicEndsOnlyThatConnection panics one connection's
// handler (through the log callback it calls) and checks that the
// panic is logged with its value, the host's slot is freed, and the
// console then configures the host on its next connection.
func TestServerHandlerPanicEndsOnlyThatConnection(t *testing.T) {
	logs := newLogWatch()
	var fired atomic.Bool
	srv, network := startMemServer(t, ServerConfig{
		Policy:        policy99(core.FullDiversity{}),
		ExpectedHosts: 1,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			if strings.Contains(line, "host 5 connected") && fired.CompareAndSwap(false, true) {
				panic("log sink exploded")
			}
			logs.logf("%s", line)
		},
	})

	conn := rawDial(t, network, 5, false)
	if _, _, err := ReadMsg(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("panicked connection: read err = %v, want EOF", err)
	}
	_ = conn.Close()
	logs.await(t, "handler panicked", "log sink exploded")

	conn = rawDial(t, network, 5, false)
	defer conn.Close()
	uploadAll(t, conn, 5, 0, ramp(20))
	expectFrame(t, conn, MsgThresholds)
	if !srv.Configured() {
		t.Fatal("console did not configure after the panic")
	}
}

// panicOnce is a percentile heuristic whose first call panics.
type panicOnce struct {
	core.Percentile
	fired *atomic.Bool
}

func (p panicOnce) Threshold(train *stats.Empirical, attack []float64) (float64, error) {
	if p.fired.CompareAndSwap(false, true) {
		panic("heuristic exploded")
	}
	return p.Percentile.Threshold(train, attack)
}

// TestPolicyPanicFailsOneRound checks that a panicking policy fails
// one configuration attempt, logged, without wedging the console: the
// next upload configures the round.
func TestPolicyPanicFailsOneRound(t *testing.T) {
	logs := newLogWatch()
	srv, network := startMemServer(t, ServerConfig{
		Policy:        core.Policy{Heuristic: panicOnce{core.Percentile{Q: 0.99}, new(atomic.Bool)}, Grouping: core.FullDiversity{}},
		ExpectedHosts: 1,
		Logf:          logs.logf,
	})
	conn := rawDial(t, network, 1, false)
	defer conn.Close()
	uploadAll(t, conn, 1, 0, ramp(20))
	// The handler configures after acknowledging the last upload and
	// before reading the next frame, so the re-upload below is read
	// only after the failed attempt.
	if err := WriteMsg(conn, MsgDistUpload, DistUpload{HostID: 1, Feature: int(features.TCP), Samples: ramp(20)}); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, conn, MsgAck)
	expectFrame(t, conn, MsgThresholds)
	logs.await(t, "panicked", "heuristic exploded")
	if !srv.Configured() {
		t.Fatal("console not configured after the retry")
	}
}

// panicConn panics on its nth Read.
type panicConn struct {
	net.Conn
	reads, nth int
	fired      *atomic.Bool
}

func (c *panicConn) Read(p []byte) (int, error) {
	if c.reads++; c.reads == c.nth {
		c.fired.Store(true)
		panic("read exploded")
	}
	return c.Conn.Read(p)
}

var fastRetry = RetryPolicy{
	MaxDials:     -1,
	MaxOpRetries: 8,
	Backoff:      100 * time.Microsecond,
	BackoffMax:   time.Millisecond,
	LinkWait:     time.Second,
}

// TestAgentReadLoopPanicHeals panics the agent's read loop on its
// first connection: that link fails, the manager redials, and the
// agent completes its uploads and receives its thresholds.
func TestAgentReadLoopPanicHeals(t *testing.T) {
	_, network := memServer(t, 1)
	var fired atomic.Bool
	var dials atomic.Int32
	a, err := Connect(AgentConfig{
		HostID: 3,
		Dial: func() (net.Conn, error) {
			conn, err := network.Dial("console")
			if err == nil && dials.Add(1) == 1 {
				// The hello's ack takes two reads; the third is the read
				// loop's wait for the next frame.
				conn = &panicConn{Conn: conn, nth: 3, fired: &fired}
			}
			return conn, err
		},
		Retry: fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := uploadEach(a); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitThresholds(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("the read loop never reached the panicking read")
	}
	if dials.Load() < 2 {
		t.Fatalf("agent dialed %d times; the panicked link was not replaced", dials.Load())
	}
}

// TestAgentManagerPanicMarksDead panics the agent's connection manager
// (through its Dial function) when it redials: the agent dies with the
// panic as its cause, and the console serves the host's next agent.
func TestAgentManagerPanicMarksDead(t *testing.T) {
	_, network := memServer(t, 1)
	var first net.Conn
	a, err := Connect(AgentConfig{
		HostID: 4,
		Dial: func() (net.Conn, error) {
			if first != nil {
				panic("dial exploded")
			}
			var err error
			first, err = network.Dial("console")
			return first, err
		},
		Retry: fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = first.Close() // the manager redials, and the Dial panics
	err = a.UploadDistribution(features.TCP, ramp(20))
	if !errors.Is(err, ErrAgentDead) || !strings.Contains(err.Error(), "dial exploded") {
		t.Fatalf("upload err = %v, want ErrAgentDead carrying the panic", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	conn, err := network.Dial("console")
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewAgent(conn, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if err := uploadEach(next); err != nil {
		t.Fatal(err)
	}
	if _, err := next.WaitThresholds(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// uploadEach uploads ramp(20) for every feature through a.
func uploadEach(a *Agent) error {
	for _, f := range features.All() {
		if err := a.UploadDistribution(f, ramp(20)); err != nil {
			return err
		}
	}
	return nil
}
