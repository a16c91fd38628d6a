package buildctl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"

	"repro/internal/analysis"
	"repro/internal/features"
	"repro/internal/snapshot"
)

// Task is one dispatched build attempt: seal users [Lo, Hi) of the
// coordinator's key as a part file. Attempt counts prior attempts of
// this exact range — hedged duplicates included — so fault injectors
// and subprocess workers can vary behavior per attempt.
type Task struct {
	Lo, Hi  int
	Attempt int
}

func (t Task) String() string {
	return fmt.Sprintf("[%d, %d) attempt %d", t.Lo, t.Hi, t.Attempt)
}

// Worker executes build attempts. The sealed part file on disk is the
// real output — a nil error only means the worker believes it sealed
// one; the coordinator trusts nothing it has not run through
// snapshot.VerifyPart. Build must honor ctx cancellation (a hedge win
// or an attempt deadline cancels stragglers) and must be safe for
// concurrent calls: the coordinator runs up to Options.Parallel
// attempts at once, and hedged duplicates of one range can overlap.
// Overlapping seals of the same range are safe because every build
// strategy produces byte-identical parts sealed by atomic rename.
type Worker interface {
	Build(ctx context.Context, t Task) error
}

// WorkerFunc adapts a function to the Worker interface.
type WorkerFunc func(ctx context.Context, t Task) error

// Build implements Worker.
func (f WorkerFunc) Build(ctx context.Context, t Task) error { return f(ctx, t) }

// fatalError marks a failure retrying cannot fix; the coordinator
// aborts the build instead of burning attempts on it.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// Fatal wraps err so the coordinator treats it as non-retryable: a bad
// key, an invalid range, a worker binary that cannot start. nil stays
// nil.
func Fatal(err error) error {
	if err == nil {
		return nil
	}
	return fatalError{err: err}
}

// IsFatal reports whether err (or anything it wraps) was marked with
// Fatal.
func IsFatal(err error) bool {
	var fe fatalError
	return errors.As(err, &fe)
}

// LocalWorker builds parts in-process via analysis.BuildShardRange —
// the Worker of every in-process multi-range build (repro's
// SnapshotWorkers, tracegen -workers).
type LocalWorker struct {
	Dir        string
	Key        snapshot.Key
	ShardUsers int
	Generate   func(u int, rows [][features.NumFeatures]float64)
}

// Build implements Worker.
func (w *LocalWorker) Build(ctx context.Context, t Task) error {
	return analysis.BuildShardRange(ctx, w.Dir, w.Key, t.Lo, t.Hi, w.ShardUsers, w.Generate)
}

// Exit codes of the subprocess worker protocol (tracegen -shard-range
// speaks it). ExecWorker maps ExitRetryable to an ordinary failed
// attempt — backoff and retry — and any other non-zero exit to a
// Fatal error that aborts the build: a worker that cannot parse its
// own range will not parse it better the fourth time.
const (
	ExitRetryable = 3 // transient failure: retrying the range may succeed
	ExitFatal     = 4 // permanent failure: bad key, range, or config
)

// RangeResult is the machine-readable single line a subprocess worker
// prints on stdout after sealing its part: the range it sealed, the
// sealed payload size and CRC-32C (as VerifyPart reports them), and
// the build wall-clock. Coordinators use it for accounting and as a
// cheap sanity check that the worker built what it was asked to; the
// authoritative check stays VerifyPart on the file itself.
type RangeResult struct {
	Lo        int    `json:"lo"`
	Hi        int    `json:"hi"`
	Bytes     int64  `json:"bytes"`
	CRC       string `json:"crc"` // %08x CRC-32C of the part payload
	ElapsedMS int64  `json:"elapsed_ms"`
}

// ParseRangeResult decodes the last line of a worker's stdout that
// unmarshals to a valid RangeResult, tolerating logging noise around
// it — a re-exec'd test binary appends PASS, and a worker that logs
// JSON lines ({"level":...}) after the result must not have a log
// line win. Unknown fields disqualify a line (a structured log line
// would otherwise decode to a zero result), as does an empty range.
func ParseRangeResult(out []byte) (RangeResult, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var firstErr error
	for i := len(lines) - 1; i >= 0; i-- {
		line := bytes.TrimSpace(lines[i])
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var res RangeResult
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		err := dec.Decode(&res)
		if err == nil && res.Hi <= res.Lo {
			err = fmt.Errorf("empty range [%d, %d)", res.Lo, res.Hi)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("buildctl: worker result line %q: %w", line, err)
			}
			continue // a log line that happens to be JSON; keep scanning up
		}
		return res, nil
	}
	if firstErr != nil {
		return RangeResult{}, firstErr
	}
	return RangeResult{}, errors.New("buildctl: worker printed no result line")
}

// ExecWorker dispatches attempts as subprocesses — the re-exec'd
// `tracegen -shard-range` flow, where a worker crash is a process
// exit rather than a panic in the coordinator's address space.
type ExecWorker struct {
	// Command constructs the subprocess for one attempt. It must use
	// exec.CommandContext(ctx, ...) so a coordinator deadline or a
	// hedge win kills the straggler instead of orphaning it.
	Command func(ctx context.Context, t Task) *exec.Cmd
}

// Build implements Worker: run the subprocess, classify its exit code
// (ExitRetryable → retryable error, anything else non-zero → Fatal),
// and check the reported RangeResult names the dispatched range.
func (w *ExecWorker) Build(ctx context.Context, t Task) error {
	cmd := w.Command(ctx, t)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err() // killed by deadline or hedge win, not a worker fault
		}
		var xe *exec.ExitError
		if errors.As(err, &xe) && xe.ExitCode() == ExitRetryable {
			return fmt.Errorf("buildctl: worker %v: retryable exit: %s", t, lastLine(stderr.Bytes()))
		}
		return Fatal(fmt.Errorf("buildctl: worker %v: %w: %s", t, err, lastLine(stderr.Bytes())))
	}
	res, err := ParseRangeResult(stdout.Bytes())
	if err != nil {
		return err // garbled stdout from a successful exit: retry
	}
	if res.Lo != t.Lo || res.Hi != t.Hi {
		return Fatal(fmt.Errorf("buildctl: worker reported range [%d, %d), dispatched %v", res.Lo, res.Hi, t))
	}
	return nil
}

// lastLine extracts the final non-empty line of a worker's stderr for
// error messages, keeping multi-KB panic dumps out of the log line.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		if line := bytes.TrimSpace(lines[i]); len(line) > 0 {
			return line
		}
	}
	return []byte("(no output)")
}
