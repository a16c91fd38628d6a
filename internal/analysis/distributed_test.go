package analysis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// helperConfig mirrors the population TestCrossProcessShardBuild uses;
// the re-exec'd worker rebuilds it from env so both processes derive
// the identical key and generator.
func helperConfig(users int) trace.Config {
	return trace.Config{Users: users, Weeks: 2, Seed: 7, BinWidth: 3 * time.Hour}
}

// TestShardWorkerHelper is not a test: it is the worker body
// TestCrossProcessShardBuild re-execs as a genuinely separate process.
// Without the env contract it skips immediately.
func TestShardWorkerHelper(t *testing.T) {
	dir := os.Getenv("REPRO_SHARD_HELPER_DIR")
	if dir == "" {
		t.Skip("helper mode: only runs re-exec'd by TestCrossProcessShardBuild")
	}
	users, err := strconv.Atoi(os.Getenv("REPRO_SHARD_HELPER_USERS"))
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi int
	if n, err := fmt.Sscanf(os.Getenv("REPRO_SHARD_HELPER_RANGE"), "%d:%d", &lo, &hi); n != 2 || err != nil {
		t.Fatalf("bad REPRO_SHARD_HELPER_RANGE %q: %v", os.Getenv("REPRO_SHARD_HELPER_RANGE"), err)
	}
	pop := trace.MustPopulation(helperConfig(users))
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildShardRange(context.Background(), dir, key, lo, hi, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossProcessShardBuild is the cross-process determinism pin:
// the same key built via (a) single-process Save and (b) two separate
// worker processes over disjoint shard ranges plus a merge must
// produce byte-identical snapshots AND manifests. The in-process
// multi-range build is pinned the same way in internal/buildctl
// (TestCoordinatorClean).
func TestCrossProcessShardBuild(t *testing.T) {
	const users = 40
	pop := trace.MustPopulation(helperConfig(users))
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		t.Fatal(err)
	}

	// (a) single-process Save from a fully in-memory workspace.
	saveDir := t.TempDir()
	mem := NewGenerated(users, func(u int) *features.Matrix { return pop.Users[u].Series() })
	if _, err := mem.Save(saveDir, key); err != nil {
		t.Fatal(err)
	}

	// (b) two genuinely separate worker processes (the test binary
	// re-exec'd onto the helper), then a merge in this process — the
	// tracegen -shard-range worker flow.
	procDir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, rng := range []string{"0:17", "17:40"} {
		cmd := exec.Command(exe, "-test.run", "^TestShardWorkerHelper$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"REPRO_SHARD_HELPER_DIR="+procDir,
			"REPRO_SHARD_HELPER_USERS="+strconv.Itoa(users),
			"REPRO_SHARD_HELPER_RANGE="+rng,
		)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("worker process %s failed: %v\n%s", rng, err, out)
		}
	}
	if n, err := snapshot.MergeShards(procDir, key); err != nil || n != 2 {
		t.Fatalf("MergeShards: n=%d err=%v", n, err)
	}

	want, err := os.ReadFile(key.Path(saveDir))
	if err != nil {
		t.Fatal(err)
	}
	wantMan, err := os.ReadFile(key.ManifestPath(saveDir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(key.Path(procDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cross-process snapshot bytes differ from single-process Save")
	}
	gotMan, err := os.ReadFile(key.ManifestPath(procDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMan, wantMan) {
		t.Fatal("cross-process manifest bytes differ from single-process Save")
	}

	// The merged store round-trips through the workspace layer.
	loaded, err := Load(procDir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	requireEqualWorkspaces(t, loaded, mem)
}

// TestLoadOrMaterializeColdThenWarm pins the access chain: a cold
// call builds the store byte-identical to Save and reports cold; the
// next call maps it warm without generating a single user.
func TestLoadOrMaterializeColdThenWarm(t *testing.T) {
	pop, key := popAndKey(t, 23, 2, 11, 6*time.Hour)
	var generated atomic.Int32
	gen := func(u int, rows [][features.NumFeatures]float64) {
		generated.Add(1)
		pop.Users[u].FillSeries(rows)
	}
	saveDir, dir := t.TempDir(), t.TempDir()
	mem := NewGenerated(key.Users, func(u int) *features.Matrix { return pop.Users[u].Series() })
	if _, err := mem.Save(saveDir, key); err != nil {
		t.Fatal(err)
	}
	ws, warm, err := LoadOrMaterialize(context.Background(), dir, key, 5, nil, gen)
	if err != nil || warm {
		t.Fatalf("cold call: warm=%v err=%v", warm, err)
	}
	ws.Close()
	want, err := os.ReadFile(key.Path(saveDir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(key.Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cold build bytes differ from Save")
	}
	generated.Store(0)
	if ws, warm, err = LoadOrMaterialize(context.Background(), dir, key, 5, nil, gen); err != nil || !warm {
		t.Fatalf("second call: warm=%v err=%v", warm, err)
	}
	ws.Close()
	if n := generated.Load(); n != 0 {
		t.Fatalf("warm call generated %d users", n)
	}
}

// TestMaterializeCancelled pins the ctx contract: cancelling a
// materialization mid-build aborts it with the context's error, seals
// nothing (no .snap, no part), and leaves no temp files behind — a
// coordinator deadline or Ctrl-C cannot leak a poisoned store. The
// multi-range build's twin is buildctl's TestBuildCancelledSealsNothing.
func TestMaterializeCancelled(t *testing.T) {
	pop, key := popAndKey(t, 30, 2, 11, 6*time.Hour)
	var built atomic.Int32
	newGen := func(ctx context.Context, cancel context.CancelFunc) func(u int, rows [][features.NumFeatures]float64) {
		return func(u int, rows [][features.NumFeatures]float64) {
			if built.Add(1) == 3 {
				cancel() // die mid-population, from inside generation
			}
			pop.Users[u].FillSeries(rows)
		}
	}
	assertNothingSealed := func(t *testing.T, dir string) {
		t.Helper()
		if _, err := os.Stat(key.Path(dir)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("cancelled build sealed a snapshot: %v", err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Fatalf("cancelled build left %s behind", e.Name())
		}
	}

	t.Run("sharded", func(t *testing.T) {
		dir := t.TempDir()
		built.Store(0)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Shard granularity 1 so the per-shard ctx check fires right
		// after the cancelling user, deterministically.
		_, err := MaterializeSharded(ctx, dir, key, 1, newGen(ctx, cancel))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		assertNothingSealed(t, dir)
	})
	t.Run("shard-range", func(t *testing.T) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already dead before the first record
		err := BuildShardRange(ctx, dir, key, 0, 10, 1, newGen(ctx, cancel))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		assertNothingSealed(t, dir)
	})
}

// TestLoadUserMatrix covers hidsd's O(record) load path: the fetched
// matrix must equal the fully loaded workspace's, out-of-range users
// must error (not panic) naming the geometry, and a manifest-less
// store must surface fs.ErrNotExist so callers fall back to Load.
func TestLoadUserMatrix(t *testing.T) {
	pop, key := popAndKey(t, 9, 2, 5, 6*time.Hour)
	dir := t.TempDir()
	ws, err := MaterializeSharded(context.Background(), dir, key, 0, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	for _, u := range []int{0, 4, 8} {
		m, err := LoadUserMatrix(dir, key, u)
		if err != nil {
			t.Fatalf("LoadUserMatrix(%d): %v", u, err)
		}
		want := ws.Matrices()[u]
		if m.BinWidth != want.BinWidth || m.StartMicros != want.StartMicros {
			t.Fatalf("user %d matrix metadata diverges", u)
		}
		if !reflect.DeepEqual(m.Rows, want.Rows) {
			t.Fatalf("user %d rows diverge from the mapped workspace", u)
		}
	}
	for _, u := range []int{-1, 9} {
		if _, err := LoadUserMatrix(dir, key, u); err == nil {
			t.Fatalf("LoadUserMatrix(%d) accepted an out-of-range user", u)
		}
	}
	if err := os.Remove(key.ManifestPath(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadUserMatrix(dir, key, 1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("manifest-less store: err = %v, want fs.ErrNotExist", err)
	}
}
