// Package repro is the public API of the reproduction of "Impact of
// IT Monoculture on Behavioral End Host Intrusion Detection"
// (Barman, Chandrashekar, Taft, Faloutsos, Huang, Giroire — WREN/
// SIGCOMM workshop 2009).
//
// It wires together the internal substrates — synthetic enterprise
// trace generation, packet-level feature extraction, threshold
// heuristics, grouping policies, attacker models and the management
// plane — behind a small surface:
//
//	ent, _ := repro.NewEnterprise(repro.Options{Users: 350, Weeks: 2, Seed: 1})
//	res, _ := repro.Fig3a(ent, repro.DefaultExperimentConfig())
//	fmt.Println(res)
//
// Every table and figure of the paper's evaluation has a runner in
// experiments.go (Fig1 … Fig5b, Table2, Table3); each returns a
// structured result whose String method renders the same rows or
// series the paper plots. See EXPERIMENTS.md for paper-vs-measured
// values and DESIGN.md for the substitutions made for the
// proprietary inputs.
package repro

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/buildctl"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures a synthetic enterprise.
type Options struct {
	// Users is the end-host population size (the paper's is 350).
	Users int
	// Weeks of capture (the paper has 5; experiments need >= 2 for
	// the train-week/test-week methodology).
	Weeks int
	// Seed makes the enterprise reproducible.
	Seed uint64
	// BinWidth is the aggregation window (default 15 minutes).
	BinWidth time.Duration
	// WeeklyTrend overrides the population's weekly rate trend; zero
	// keeps the calibrated default (see internal/trace).
	WeeklyTrend float64
	// SnapshotDir enables the on-disk workspace store: Materialize
	// first tries to map an existing snapshot of this exact enterprise
	// (content-addressed by seed, population, weeks, bin width and
	// engine version) as a zero-copy workspace; on a miss it streams
	// the population through sharded materialization into the
	// directory and maps the result, so warm runs skip generation
	// entirely and cold runs never hold the whole population in
	// memory. Stale or corrupt files silently fall back to
	// regeneration. Empty means the REPRO_SNAPSHOT_DIR environment
	// variable, then (still empty) fully in-memory materialization.
	SnapshotDir string
	// SnapshotShard bounds how many users a cold sharded
	// materialization holds in memory at once; <= 0 means
	// analysis.DefaultShardUsers. Ignored without a snapshot
	// directory.
	SnapshotShard int
	// SnapshotWorkers > 1 makes a cold materialization build the
	// snapshot as that many user ranges through internal/buildctl —
	// the coordinator cmd/tracegen also drives across processes and
	// hosts — each sealed as a part and merged into the canonical
	// (byte-identical) store. <= 1 keeps the single streaming build.
	// Ignored without a snapshot directory.
	SnapshotWorkers int
	// StreamShard arms bounded-heap streaming evaluation on a mapped
	// snapshot workspace: population-wide analyses iterate the store
	// in shards of at most this many users, releasing each shard's
	// pages as they finish, so peak RSS tracks the shard size instead
	// of the population. Results are bit-identical to the whole-heap
	// path. Zero means the REPRO_STREAM_SHARD environment variable,
	// then (still zero) whole-heap evaluation. Ignored without a
	// snapshot-backed workspace.
	StreamShard int
	// Warnf receives non-fatal operational warnings — today, snapshot
	// store fallbacks (stale/corrupt file rejected, unwritable
	// directory) that would otherwise regenerate silently. Default:
	// stderr.
	Warnf func(format string, args ...any)
}

// Enterprise is a generated population together with its lazily
// materialized per-user feature matrices and the columnar analysis
// workspace every experiment runner shares (pre-sorted per-user ×
// per-week × per-feature views, memoized distributions, cached
// attack sweeps and threshold configurations). It is safe for
// concurrent use after construction.
type Enterprise struct {
	// Pop is the underlying synthetic population.
	Pop *trace.Population

	once     []sync.Once
	matrices []*features.Matrix

	snapDir     string
	snapShard   int
	snapWorkers int
	streamShard int
	warnf       func(format string, args ...any)

	wsOnce sync.Once
	// ws is published atomically once materialization completes, so
	// accessors that must not *trigger* a build (Matrix, Close) can
	// still observe a finished one race-free.
	ws atomic.Pointer[analysis.Workspace]
}

// NewEnterprise generates a deterministic enterprise from opts.
func NewEnterprise(opts Options) (*Enterprise, error) {
	pop, err := trace.NewPopulation(trace.Config{
		Users:       opts.Users,
		Weeks:       opts.Weeks,
		Seed:        opts.Seed,
		BinWidth:    opts.BinWidth,
		WeeklyTrend: opts.WeeklyTrend,
	})
	if err != nil {
		return nil, err
	}
	dir := opts.SnapshotDir
	if dir == "" {
		dir = os.Getenv("REPRO_SNAPSHOT_DIR")
	}
	streamShard := opts.StreamShard
	if streamShard == 0 {
		if n, err := strconv.Atoi(os.Getenv("REPRO_STREAM_SHARD")); err == nil {
			streamShard = n
		}
	}
	warnf := opts.Warnf
	if warnf == nil {
		warnf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "repro: "+format+"\n", args...)
		}
	}
	return &Enterprise{
		Pop:         pop,
		once:        make([]sync.Once, len(pop.Users)),
		matrices:    make([]*features.Matrix, len(pop.Users)),
		snapDir:     dir,
		snapShard:   opts.SnapshotShard,
		snapWorkers: opts.SnapshotWorkers,
		streamShard: streamShard,
		warnf:       warnf,
	}, nil
}

// Users returns the population size.
func (e *Enterprise) Users() int { return len(e.Pop.Users) }

// Matrix returns user u's feature matrix, materializing it on first
// use with the week-batched trace generator. A fully materialized
// enterprise already holds every matrix — snapshot-backed workspaces
// serve zero-copy mapped views (read-only; Clone before mutating) —
// so the per-user generator only runs when the workspace has not
// been built yet.
func (e *Enterprise) Matrix(u int) *features.Matrix {
	e.once[u].Do(func() {
		if ws := e.ws.Load(); ws != nil {
			e.matrices[u] = ws.Matrices()[u]
			return
		}
		e.matrices[u] = e.Pop.Users[u].Series()
	})
	return e.matrices[u]
}

// Materialize generates every user's matrix and builds the columnar
// analysis workspace in one fused parallel pass: each worker runs the
// batch generation engine for its user and extracts + sorts the
// user's feature-week columns while the rows are cache-hot.
// Experiments call it up front so their own timings exclude
// generation. With a snapshot directory configured (Options or
// REPRO_SNAPSHOT_DIR) the workspace is instead mapped from — or, on a
// miss, streamed shard by shard into — the on-disk store.
func (e *Enterprise) Materialize() {
	e.workspace()
}

// snapshotKey content-addresses this enterprise in the snapshot
// store. Pop.Cfg is already normalized, so the key's defaulted fields
// (start time, heavy fraction, trend) are exactly what generation ran
// under.
func (e *Enterprise) snapshotKey() (snapshot.Key, error) {
	return snapshot.KeyFor(e.Pop.Cfg)
}

// SaveSnapshot persists the enterprise's materialized workspace to
// the content-addressed store under dir and returns the sealed file's
// path. A later enterprise with the same Options (and any other
// process on the host) then maps it back via the snapshot path
// instead of regenerating.
func (e *Enterprise) SaveSnapshot(dir string) (string, error) {
	key, err := e.snapshotKey()
	if err != nil {
		return "", err
	}
	return e.workspace().Save(dir, key)
}

// Close releases the enterprise's snapshot mapping when its workspace
// was loaded from the on-disk store (no-op otherwise). The enterprise
// must not be used afterwards — every view its workspace served is
// invalid once the mapping is gone. Only needed by callers that churn
// through many enterprises in one process (benchmarks, sweeps);
// letting the process exit is equivalent.
func (e *Enterprise) Close() error {
	if ws := e.ws.Load(); ws != nil {
		return ws.Close()
	}
	return nil
}

// workspace returns the enterprise's columnar analysis workspace,
// building it (and all matrices) on first use.
func (e *Enterprise) workspace() *analysis.Workspace {
	e.wsOnce.Do(func() {
		e.ws.Store(e.buildWorkspace())
	})
	return e.ws.Load()
}

func (e *Enterprise) buildWorkspace() *analysis.Workspace {
	if e.snapDir != "" {
		if key, err := e.snapshotKey(); err == nil {
			// Warm: map the existing snapshot, skipping generation
			// entirely. Cold (or stale/corrupt, which Load rejects):
			// build the store and map the result. Any failure —
			// unwritable directory, full disk, … — falls through to
			// the in-memory build rather than failing the run, but is
			// surfaced through Warnf so operators can tell a fallback
			// from a warm map.
			if ws, err := e.loadSnapshot(key); err == nil {
				ws.SetStreamShard(e.streamShard)
				return ws
			}
		}
	}
	// In-memory fused build. All users' rows live in one slab, so
	// the parallel materialize loop costs one allocation for the
	// whole population's matrices instead of one per user.
	bins := e.Pop.Cfg.TotalBins()
	slab := make([][features.NumFeatures]float64, len(e.matrices)*bins)
	return analysis.NewGenerated(len(e.matrices), func(u int) *features.Matrix {
		e.once[u].Do(func() {
			rows := slab[u*bins : (u+1)*bins : (u+1)*bins]
			e.matrices[u] = e.Pop.Users[u].SeriesInto(rows)
		})
		return e.matrices[u]
	})
}

// loadSnapshot maps the enterprise's snapshot, cold-building it when
// missing: in one streaming pass, or with SnapshotWorkers > 1 as that
// many user ranges through the build coordinator. Both seal the same
// bytes.
func (e *Enterprise) loadSnapshot(key snapshot.Key) (*analysis.Workspace, error) {
	warn := func(stage string, werr error) {
		e.warnf("snapshot %s fallback (%s): %v", stage, e.snapDir, werr)
	}
	gen := func(u int, rows [][features.NumFeatures]float64) {
		e.Pop.Users[u].FillSeries(rows)
	}
	if e.snapWorkers <= 1 {
		ws, _, err := analysis.LoadOrMaterialize(context.Background(), e.snapDir, key, e.snapShard, warn, gen)
		return ws, err
	}
	ws, err := analysis.Load(e.snapDir, key)
	if err == nil {
		return ws, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		warn("load", err)
	}
	_, err = buildctl.Build(context.Background(), buildctl.Options{
		Dir: e.snapDir, Key: key,
		Worker:   &buildctl.LocalWorker{Dir: e.snapDir, Key: key, ShardUsers: e.snapShard, Generate: gen},
		Parallel: e.snapWorkers, Weights: e.Pop.CostWeights(),
		// In-process attempts fail for reasons neither a retry nor a
		// duplicate on the same cores can fix: fail fast and fall
		// back to the in-memory build.
		MaxAttempts: 1, HedgeFactor: -1,
	})
	if err == nil {
		ws, err = analysis.Load(e.snapDir, key)
	}
	if err != nil {
		warn("materialize", err)
	}
	return ws, err
}

// TrainTest extracts every user's train-week and test-week series of
// one feature, the input shape of the §6.1 methodology. The returned
// slices are fresh copies the caller may modify; internal runners use
// the workspace's shared columns directly.
func (e *Enterprise) TrainTest(f features.Feature, trainWeek, testWeek int) (train, test [][]float64) {
	ws := e.workspace()
	return copyColumns(ws.Raw(f, trainWeek)), copyColumns(ws.Raw(f, testWeek))
}

func copyColumns(cols [][]float64) [][]float64 {
	out := make([][]float64, len(cols))
	for u := range cols {
		out[u] = append([]float64(nil), cols[u]...)
	}
	return out
}

// TailStats returns every user's q-quantile of one feature over the
// given week (the per-user thresholds Fig 1 plots). Results come
// from the workspace's memoized quantile vectors; the returned slice
// is a fresh copy the caller may reorder.
func (e *Enterprise) TailStats(f features.Feature, week int, q float64) ([]float64, error) {
	tails, err := e.workspace().TailStats(f, week, q)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return append([]float64(nil), tails...), nil
}

// Policies returns the paper's three grouping policies under one
// heuristic, in presentation order: homogeneous, full diversity,
// 8-partial.
func Policies(h core.Heuristic) []core.Policy {
	return []core.Policy{
		{Heuristic: h, Grouping: core.Homogeneous{}},
		{Heuristic: h, Grouping: core.FullDiversity{}},
		{Heuristic: h, Grouping: core.PartialDiversity{NumGroups: 8}},
	}
}

// AttackSweep builds the paper's attack-size sweep for one feature:
// n geometrically spaced sizes from 1 up to the maximum feature value
// any user exhibits in the training week ("the largest attack for a
// given feature is determined by finding the user whose own traffic
// hits the maximum seen value", §6.1). Sweeps are memoized per
// (feature, week, n); the returned slice is a fresh copy.
func (e *Enterprise) AttackSweep(f features.Feature, trainWeek, n int) []float64 {
	return append([]float64(nil), e.workspace().Sweep(f, trainWeek, n)...)
}

// geomSpace returns n geometrically spaced values over [lo, hi],
// guarding degenerate bounds (lo <= 0, hi <= lo, NaN/Inf) so attack
// sweeps can never contain NaN or Inf magnitudes.
func geomSpace(lo, hi float64, n int) []float64 {
	return analysis.GeomSpace(lo, hi, n)
}

// Distribution returns one user's memoized empirical distribution of
// a feature over a week. The distribution is shared with the
// analysis workspace (Empirical is immutable, so sharing is safe).
func (e *Enterprise) Distribution(u int, f features.Feature, week int) (*stats.Empirical, error) {
	return e.workspace().Dist(u, f, week), nil
}
