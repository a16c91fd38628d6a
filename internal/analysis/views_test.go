package analysis

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/snapshot"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSnapshotViewsBuildRawOnDemand pins the lazy raw half: on a
// loaded store, Dists and Sorted of the full workspace and of a view
// allocate well under one raw slab (users × binsPerWeek floats) and
// leave the raw columns unbuilt; a later Raw is bit-identical to the
// in-memory workspace's raw columns.
func TestSnapshotViewsBuildRawOnDemand(t *testing.T) {
	const users, lo, hi = 24, 5, 17
	pop, key := popAndKey(t, users, 2, 53, time.Hour)
	dir := t.TempDir()
	ws, err := MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	mem := NewGenerated(users, func(u int) *features.Matrix { return pop.Users[u].Series() })

	for _, tc := range []struct {
		name string
		w    *Workspace
		base int
	}{
		{"full", ws, 0},
		{"view", ws.ViewRange(lo, hi), lo},
	} {
		slab := uint64(tc.w.Users() * tc.w.BinsPerWeek() * 8)
		for week := 0; week < tc.w.Weeks(); week++ {
			for _, f := range features.All() {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tc.w.Dists(f, week)
				tc.w.Sorted(f, week)
				runtime.ReadMemStats(&after)
				if got := after.TotalAlloc - before.TotalAlloc; got >= slab/2 {
					t.Fatalf("%s %s week %d: Dists+Sorted allocated %d bytes, a raw slab is %d", tc.name, f, week, got, slab)
				}
				if b := tc.w.blocks[tc.w.blockIndex(f, week)]; b.raw != nil || b.rawBuf != nil {
					t.Fatalf("%s %s week %d: raw columns built without a Raw call", tc.name, f, week)
				}
			}
		}
		for week := 0; week < tc.w.Weeks(); week++ {
			for _, f := range features.All() {
				raw, want := tc.w.Raw(f, week), mem.Raw(f, week)
				for u := range raw {
					if !sameBits(raw[u], want[tc.base+u]) || !sameBits(tc.w.RawUser(u, f, week), want[tc.base+u]) {
						t.Fatalf("%s %s week %d: raw column of user %d diverges from the in-memory build", tc.name, f, week, tc.base+u)
					}
				}
			}
		}
	}
}

// TestSortedColumnsScannedOncePerStore pins the shared validation
// bits: however many views, shards and runners read a mapped sorted
// column, it is scanned exactly once per opened store.
func TestSortedColumnsScannedOncePerStore(t *testing.T) {
	const users = 19
	_, streamed := streamedPair(t, users, 87, 7)
	f := features.TCP
	scans := func() int64 { return streamed.checks.scans.Load() }

	if _, err := streamed.TailStats(f, 0, 0.99); err != nil {
		t.Fatal(err)
	}
	sweep := streamed.Sweep(f, 0, 12)
	for _, pol := range []core.Policy{
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.Homogeneous{}},
		{Heuristic: core.UtilityOptimal{W: 0.4}, Grouping: core.PartialDiversity{NumGroups: 4}},
		{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}},
	} {
		if _, err := streamed.Assignment(f, 0, pol, sweep, "sp12"); err != nil {
			t.Fatal(err)
		}
	}
	streamed.Dists(f, 0)
	streamed.ViewRange(3, 11).Sorted(f, 0)
	if got := scans(); got != users {
		t.Fatalf("one block read by many views and runners: %d column scans, want %d", got, users)
	}
	streamed.ViewRange(3, 11).Dists(f, 1)
	streamed.ViewRange(0, 5).Dists(f, 1)
	streamed.Raw(f, 1) // the raw half scans nothing
	if got, want := scans(), int64(users+11); got != want {
		t.Fatalf("after two overlapping views of week 1: %d column scans, want %d", got, want)
	}
}

// TestMalformedSortedColumnPanicsInFreshView seals a store whose
// checksums are valid but whose writer left one sorted column out of
// order. Only the scan can catch that: the first use of the column
// must panic, in the full workspace and in every fresh view covering
// the user, while views and shards that never read it keep working.
func TestMalformedSortedColumnPanicsInFreshView(t *testing.T) {
	const users, bad = 12, 7
	pop, key := popAndKey(t, users, 1, 53, time.Hour)
	dir := t.TempDir()
	wr, err := snapshot.Create(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	lay := wr.Layout()
	rf, bpw := lay.RecordFloats(), lay.BinsPerWeek
	buf := make([]float64, users*rf)
	for u := 0; u < users; u++ {
		rec := buf[u*rf : (u+1)*rf]
		pop.Users[u].FillSeries(lay.RowsOf(rec))
		fillDerived(rec, lay)
	}
	off := bad*rf + lay.SortedOff(0, int(features.TCP))
	col := buf[off : off+bpw]
	if col[0] == col[bpw-1] {
		t.Fatal("user's TCP column is constant; pick another user")
	}
	col[0], col[bpw-1] = col[bpw-1], col[0]
	if err := wr.AppendUsers(buf); err != nil {
		t.Fatal(err)
	}
	if err := wr.Finish(); err != nil {
		t.Fatal(err)
	}
	ws, err := Load(dir, key)
	if err != nil {
		t.Fatalf("checksums should pass: %v", err)
	}
	defer ws.Close()

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			v := recover()
			if v == nil {
				t.Fatalf("%s: malformed sorted column adopted without a panic", what)
			}
			if msg := toString(v); !strings.Contains(msg, "not sorted") || !strings.Contains(msg, "user 7") {
				t.Fatalf("%s: panic %q does not name the column", what, msg)
			}
		}()
		fn()
	}
	ws.ViewRange(0, bad).Dists(features.TCP, 0) // never reads the bad column
	mustPanic("first view", func() { ws.ViewRange(4, 10).Dists(features.TCP, 0) })
	mustPanic("second fresh view", func() { ws.ViewRange(bad, bad+1).Sorted(features.TCP, 0) })
	ws.SetStreamShard(5)
	mustPanic("streamed tail stats", func() { _, _ = ws.TailStats(features.TCP, 0, 0.99) })
	if _, err := ws.TailStats(features.UDP, 0, 0.99); err != nil {
		t.Fatal(err)
	}
}

func toString(v any) string {
	if err, ok := v.(error); ok {
		return err.Error()
	}
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}
