package buildctl

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/features"
)

// TestHedgeLoserCancelledPromptly is the goroutine-leak regression
// test for first-valid-wins: every range's first attempt hangs on its
// context with a 30s deadline, the hedge seals the part, and the
// losing attempt must observe cancellation immediately — not at its
// own deadline — so the build finishes in hedge time and no attempt
// goroutine outlives the Build call.
func TestHedgeLoserCancelledPromptly(t *testing.T) {
	pop, key := testPop(t, 36)
	dir := t.TempDir()
	var hung, cancelled atomic.Int64
	local := &LocalWorker{Dir: dir, Key: key, Generate: genFor(pop)}
	worker := WorkerFunc(func(ctx context.Context, tk Task) error {
		if tk.Attempt == 0 {
			hung.Add(1)
			<-ctx.Done()
			cancelled.Add(1)
			return ctx.Err()
		}
		return local.Build(ctx, tk)
	})
	base := runtime.NumGoroutine()
	const deadline = 30 * time.Second
	start := time.Now()
	st, err := Build(context.Background(), Options{
		Dir: dir, Key: key, Worker: worker,
		Parallel: 4, Ranges: 2,
		AttemptTimeout: deadline,
		HedgeAfter:     30 * time.Millisecond, HedgeFactor: 3,
	})
	if err != nil {
		t.Fatalf("build: %v (stats %+v)", err, st)
	}
	if elapsed := time.Since(start); elapsed >= deadline/3 {
		t.Fatalf("build took %v — hung losers were waited out, not cancelled (deadline %v)", elapsed, deadline)
	}
	if st.Hedges < 2 {
		t.Fatalf("hedges = %d, want one per range (stats %+v)", st.Hedges, st)
	}
	// Build drains in-flight attempts before returning, so by now every
	// hung attempt must have seen ctx.Done.
	if h, c := hung.Load(), cancelled.Load(); h == 0 || c != h {
		t.Fatalf("hung=%d cancelled=%d — losing attempts leaked past Build", h, c)
	}
	// And no attempt goroutine may outlive the call.
	waitGoroutines(t, base)
}

// TestParseRangeResultGarbage pins the stdout-parsing contract: the
// result is the last line that unmarshals to a valid RangeResult, and
// trailing noise — PASS lines, plain log text, structured JSON log
// lines, truncated JSON — must not shadow it or decode as a bogus
// zero result.
func TestParseRangeResultGarbage(t *testing.T) {
	want := RangeResult{Lo: 3, Hi: 9, Bytes: 1234, CRC: "0badf00d", ElapsedMS: 7}
	const res = `{"lo":3,"hi":9,"bytes":1234,"crc":"0badf00d","elapsed_ms":7}`
	cases := map[string]string{
		"bare":              res,
		"pass-suffix":       res + "\nPASS\nok  \trepro/internal/buildctl\t0.01s\n",
		"log-prefix":        "starting build\nsealed part\n" + res,
		"json-log-suffix":   res + "\n{\"level\":\"info\",\"msg\":\"part sealed\",\"host\":\"w1\"}\n",
		"json-log-both":     "{\"level\":\"debug\",\"msg\":\"dialing\"}\n" + res + "\n{\"level\":\"info\",\"msg\":\"done\"}\nPASS",
		"truncated-suffix":  res + "\n{\"lo\":3,\"hi\":",
		"empty-range-noise": res + "\n{\"lo\":0,\"hi\":0,\"bytes\":0,\"crc\":\"\",\"elapsed_ms\":0}",
		"crlf":              res + "\r\n{\"level\":\"info\",\"msg\":\"done\"}\r\n",
	}
	for name, out := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := ParseRangeResult([]byte(out))
			if err != nil {
				t.Fatalf("ParseRangeResult: %v", err)
			}
			if got != want {
				t.Fatalf("got %+v, want %+v", got, want)
			}
		})
	}
	t.Run("no-result", func(t *testing.T) {
		for _, out := range []string{"", "PASS", "{\"level\":\"info\"}\n{\"level\":\"warn\"}"} {
			if _, err := ParseRangeResult([]byte(out)); err == nil {
				t.Fatalf("ParseRangeResult(%q) = nil error, want failure", out)
			}
		}
	})
	t.Run("error-names-line", func(t *testing.T) {
		_, err := ParseRangeResult([]byte("{\"level\":\"info\",\"msg\":\"done\"}"))
		if err == nil || !strings.Contains(err.Error(), "level") {
			t.Fatalf("err = %v, want it to quote the rejected line", err)
		}
	})
}

// TestBuildCancelledSealsNothing pins the ctx contract of an
// in-process multi-range build: cancelling mid-build (from inside
// generation) returns the context's error, seals nothing — no
// snapshot, no part, no temp file left behind — and no attempt
// goroutine outlives the Build call.
func TestBuildCancelledSealsNothing(t *testing.T) {
	pop, key := testPop(t, 30)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var built atomic.Int32
	worker := &LocalWorker{Dir: dir, Key: key, ShardUsers: 1,
		Generate: func(u int, rows [][features.NumFeatures]float64) {
			if built.Add(1) == 3 {
				cancel() // die mid-population, from inside generation
			}
			pop.Users[u].FillSeries(rows)
		}}
	base := runtime.NumGoroutine()
	_, err := Build(ctx, Options{Dir: dir, Key: key, Worker: worker, Parallel: 3, Weights: pop.CostWeights()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Fatalf("cancelled build left %s behind", e.Name())
	}
	waitGoroutines(t, base)
}

// TestBuildWorkerPanicIsFatal pins the panic contract: a worker that
// panics must not kill the process from its attempt goroutine. Build
// returns a Fatal error naming the range, without retrying it.
func TestBuildWorkerPanicIsFatal(t *testing.T) {
	_, key := testPop(t, 12)
	dir := t.TempDir()
	var calls atomic.Int32
	worker := WorkerFunc(func(ctx context.Context, tk Task) error {
		calls.Add(1)
		if tk.Lo == 0 {
			panic("generator bug")
		}
		<-ctx.Done() // the other range waits to be cancelled by the abort
		return ctx.Err()
	})
	base := runtime.NumGoroutine()
	_, err := Build(context.Background(), Options{Dir: dir, Key: key, Worker: worker, Parallel: 2})
	if err == nil || !IsFatal(err) {
		t.Fatalf("err = %v, want a Fatal error", err)
	}
	for _, want := range []string{"[0, 6)", "generator bug"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to name %q", err, want)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d attempts, want 2: a panicking range must not be retried", n)
	}
	waitGoroutines(t, base)
}

// waitGoroutines fails the test unless the goroutine count settles
// back to base (plus a little runtime bookkeeping) within a grace
// period.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	dl := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base+3 {
		if time.Now().After(dl) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
