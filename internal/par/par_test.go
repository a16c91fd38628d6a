package par

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 257
		seen := make([]atomic.Int32, n)
		ForEach(n, workers, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ForEachErr(100, 8, func(i int) error {
		switch i {
		case 90:
			return errB
		case 7:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want error from lowest failing index", err)
	}
	if err := ForEachErr(10, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestWorkersClamping(t *testing.T) {
	if w := Workers(8, 3); w != 3 {
		t.Fatalf("Workers(8,3) = %d", w)
	}
	if w := Workers(0, 1000); w < 1 {
		t.Fatalf("Workers(0,1000) = %d", w)
	}
	if w := Workers(-1, 0); w != 1 {
		t.Fatalf("Workers(-1,0) = %d", w)
	}
}

// TestForEachPanicReachesCaller pins the fan-out's panic contract: a
// panic on a worker goroutine must not kill the process but surface
// on the caller's goroutine, where a deferred recover sees it with the
// original value and the worker's stack.
func TestForEachPanicReachesCaller(t *testing.T) {
	for name, run := range map[string]func(fn func(int)){
		"ForEach": func(fn func(int)) { ForEach(100, 4, fn) },
		"ForEachErr": func(fn func(int)) {
			ForEachErr(100, 4, func(i int) error { fn(i); return nil })
		},
	} {
		t.Run(name, func(t *testing.T) {
			var got any
			func() {
				defer func() { got = recover() }()
				run(func(i int) {
					if i == 37 {
						panic("boom at 37")
					}
				})
			}()
			wp, ok := got.(WorkerPanic)
			if !ok {
				t.Fatalf("recovered %T %v, want a WorkerPanic", got, got)
			}
			if wp.Value != "boom at 37" {
				t.Fatalf("panic value %v, want the worker's", wp.Value)
			}
			if !strings.Contains(string(wp.Stack), "TestForEachPanicReachesCaller") {
				t.Fatalf("stack does not name the panicking worker:\n%s", wp.Stack)
			}
		})
	}
}
