// Package par provides the bounded fork-join primitives the analysis
// read path is built on: every fan-out in the experiment engine —
// per-user shards, per-policy evaluations, per-sweep points — runs
// through ForEach/ForEachErr so the whole process shares one notion
// of parallelism and never spawns unbounded goroutines.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested worker count: values < 1 mean "one
// worker per available CPU", and the count never exceeds n (no point
// parking goroutines with nothing to do).
func Workers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// WorkerPanic is the value ForEach re-panics with on the caller's
// goroutine when fn panicked on a worker goroutine: the original
// panic value plus the worker's stack at the point of the panic.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines (workers < 1 selects GOMAXPROCS). It returns when all
// calls have completed. Indices are handed out atomically, so the
// work distribution is dynamic: cheap items don't stall behind
// expensive ones. fn must be safe for concurrent invocation on
// distinct indices.
//
// A panic in fn never kills the process from a worker goroutine: the
// first one is captured, the workers stop taking new indices, and
// once all of them have returned ForEach re-panics on the caller's
// goroutine with a WorkerPanic, so a caller's recover sees it exactly
// as it would in the serial loop.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		caught    *WorkerPanic
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicOnce.Do(func() { caught = &WorkerPanic{Value: v, Stack: debug.Stack()} })
					next.Store(int64(n)) // hand out no further indices
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if caught != nil {
		panic(*caught)
	}
}

// ForEachErr is ForEach for fallible work: it runs fn(i) for every i
// in [0, n) and returns the error from the lowest index that failed
// (deterministic regardless of scheduling). All indices are attempted
// even after a failure, keeping the completion semantics identical to
// the serial loop the caller replaced. A panic in fn reaches the
// caller as in ForEach.
func ForEachErr(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	ForEach(n, workers, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			mu.Unlock()
		}
	})
	return firstErr
}
