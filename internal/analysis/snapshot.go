package analysis

// The snapshot integration: a materialized Workspace is a pure
// function of its generation key, so it is computed once, persisted
// in internal/snapshot's columnar format, and mapped back as
// zero-copy views.
//
//   - Save serializes any workspace (rows are copied out of its
//     matrices; sorted columns and day views are recomputed from the
//     rows, which is bit-identical to the in-memory build because
//     sorting the same column yields the same slice).
//   - Load maps a snapshot and builds a workspace whose matrices,
//     sorted columns, distributions and day views alias the mapping.
//     Only the raw time-ordered columns are rebuilt, per block and
//     only when Raw asks for them: rows interleave the six features,
//     so a raw column is the one view the file cannot serve as a
//     contiguous run.
//   - MaterializeSharded streams a population through bounded
//     user-shards straight into a snapshot writer — generate, derive,
//     append, release — so peak heap is O(shard × record), not
//     O(users × record), then Loads the result. The returned
//     workspace is bit-identical to NewGenerated over the same
//     generator.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sort"

	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/snapshot"
)

// DefaultShardUsers is the shard granularity used when a caller does
// not choose one: large enough to keep every core busy inside a
// shard, small enough that a shard buffer stays in the tens of
// megabytes at paper-scale geometries.
const DefaultShardUsers = 512

// Save writes the workspace to dir under the content-addressed key,
// returning the sealed file's path. The key's geometry must match the
// workspace; the key's generation fields (seed, trend, …) are the
// caller's assertion of where the matrices came from — Save cannot
// verify them, exactly as a build cache trusts its own key.
func (w *Workspace) Save(dir string, key snapshot.Key) (string, error) {
	lay := key.Layout()
	if key.Users != w.users || key.Weeks != w.weeks ||
		key.BinWidth != w.binWidth || lay.BinsPerWeek != w.binsPerWeek {
		return "", fmt.Errorf("analysis: snapshot key geometry (%d users, %d weeks, %v bins) does not match workspace (%d, %d, %v)",
			key.Users, key.Weeks, key.BinWidth, w.users, w.weeks, w.binWidth)
	}
	if sm := w.matrices[0].StartMicros; sm != key.StartMicros {
		return "", fmt.Errorf("analysis: snapshot key start %d does not match workspace start %d", key.StartMicros, sm)
	}
	wr, err := snapshot.Create(dir, key)
	if err != nil {
		return "", err
	}
	if err := sealRecords(context.Background(), wr, 0, w.users, DefaultShardUsers, func(u int, rows [][features.NumFeatures]float64) {
		copy(rows, w.matrices[u].Rows)
	}); err != nil {
		return "", err
	}
	return key.Path(dir), nil
}

// Load maps the snapshot addressed by key under dir into a zero-copy
// workspace. Everything the workspace serves that the file holds —
// matrices, sorted columns, the distributions adopting them, day
// views — aliases the read-only mapping; mutating any of it faults.
// Load itself only maps and checksums the file (the warm path is two
// orders of magnitude cheaper than regeneration); per-(feature, week)
// views are wired on first use by the workspace's existing lazy block
// machinery. A missing, stale (engine or key mismatch) or corrupt
// (size or checksum) file returns an error and the caller
// regenerates. Close the workspace to release the mapping once
// nothing reads from it anymore.
func Load(dir string, key snapshot.Key) (*Workspace, error) {
	snap, err := snapshot.Open(dir, key)
	if err != nil {
		return nil, err
	}
	lay := snap.Layout()
	users := lay.Users
	matSlab := make([]features.Matrix, users)
	matrices := make([]*features.Matrix, users)
	for u := range matrices {
		matSlab[u] = features.Matrix{
			BinWidth:    key.BinWidth,
			StartMicros: key.StartMicros,
			Rows:        snap.Rows(u),
		}
		matrices[u] = &matSlab[u]
	}
	w := newWorkspace(matrices, users, lay.Weeks, lay.BinsPerWeek, key.BinWidth)
	w.snap = snap
	w.checks = newSortedChecks(len(w.blocks), users)
	return w, nil
}

// LoadOrMaterialize is the store's standard access chain: map the
// snapshot if a valid one exists (warm == true; generate is never
// called), otherwise cold-build it in one streaming pass with
// MaterializeSharded. Multi-range builds go through internal/buildctl
// instead, which seals the same bytes. Callers own the failure policy
// — the enterprise and the fleet harness fall back to in-memory
// materialization, tracegen reports the error.
//
// warn, when non-nil, surfaces fallback events that were previously
// silent: stage "load" fires when a snapshot file exists but could
// not be mapped (stale engine/key, corrupt checksum, short file —
// anything but plain absence), stage "materialize" when the
// cold-build itself fails. Operators watching warn can tell a mystery
// cold rebuild from a routine first run.
// ctx bounds the cold build only (the warm map is nearly
// instantaneous): a deadline or Ctrl-C cancels it instead of leaking
// it.
func LoadOrMaterialize(ctx context.Context, dir string, key snapshot.Key, shardUsers int, warn func(stage string, err error), generate func(u int, rows [][features.NumFeatures]float64)) (ws *Workspace, warm bool, err error) {
	ws, lerr := Load(dir, key)
	if lerr == nil {
		return ws, true, nil
	}
	if warn != nil && !errors.Is(lerr, fs.ErrNotExist) {
		warn("load", lerr)
	}
	ws, err = MaterializeSharded(ctx, dir, key, shardUsers, generate)
	if err != nil && warn != nil {
		warn("materialize", err)
	}
	return ws, false, err
}

// LoadUserMatrix fetches ONE user's matrix from the store in
// O(record): snapshot.OpenUser validates the manifest and the
// containing integrity shard only, so at population scale the read
// touches a few hundred records' worth of bytes instead of
// checksumming and mapping the whole file the way Load must. The
// returned matrix owns its rows (no mapping to close). Callers fall
// back to a full Load for manifest-less (pre-manifest) stores.
func LoadUserMatrix(dir string, key snapshot.Key, u int) (*features.Matrix, error) {
	rec, err := snapshot.OpenUser(dir, key, u)
	if err != nil {
		return nil, err
	}
	return &features.Matrix{
		BinWidth:    key.BinWidth,
		StartMicros: key.StartMicros,
		Rows:        rec.Rows(),
	}, nil
}

// BuildShardRange materializes users [lo, hi) of key into a sealed
// part file under dir — one worker's slice of a distributed build.
// generate has the MaterializeSharded contract; it is only called for
// users inside the range, so a coordinator can hand disjoint ranges
// to separate processes (or hosts sharing a filesystem) and each pays
// only its slice of the generation cost. snapshot.MergeShards seals
// the parts into the canonical snapshot once all ranges exist;
// internal/buildctl coordinates that whole flow.
// ctx aborts the build between (and inside) generation shards: on
// cancellation the part writer is aborted — its temp file removed,
// nothing sealed — and ctx's error returned.
func BuildShardRange(ctx context.Context, dir string, key snapshot.Key, lo, hi, shardUsers int, generate func(u int, rows [][features.NumFeatures]float64)) error {
	wr, err := snapshot.CreateShard(dir, key, lo, hi)
	if err != nil {
		return err
	}
	return sealRecords(ctx, wr, lo, hi, shardUsers, generate)
}

// MaterializeSharded materializes a population straight into a
// snapshot at dir and returns the loaded zero-copy workspace.
// generate must fill rows (one user's full capture, Layout().Bins()
// rows) deterministically and be safe for concurrent calls with
// distinct u — it is the same contract as NewGenerated's matrixOf,
// minus the Matrix wrapper. Users are processed in shards of
// shardUsers (<= 0 means DefaultShardUsers): the shard buffer is the
// only population-sized state ever resident, so peak heap stays
// O(shardUsers) while populations of 20k–100k users stream to disk.
// ctx cancellation aborts the build between generation shards (and
// skips remaining per-user fills inside one): the writer's temp file
// is removed and ctx's error returned — no partial snapshot can seal.
func MaterializeSharded(ctx context.Context, dir string, key snapshot.Key, shardUsers int, generate func(u int, rows [][features.NumFeatures]float64)) (*Workspace, error) {
	wr, err := snapshot.Create(dir, key)
	if err != nil {
		return nil, err
	}
	if err := sealRecords(ctx, wr, 0, key.Users, shardUsers, generate); err != nil {
		return nil, err
	}
	return Load(dir, key)
}

// recordWriter is what sealRecords streams through: the full-snapshot
// Writer and the part-file ShardWriter share it.
type recordWriter interface {
	Layout() snapshot.Layout
	AppendUsers([]float64) error
	Finish() error
	Abort()
}

// sealRecords pulls users [lo, hi) through generate in bounded shards,
// derives each record's sorted columns and day views, appends the
// records to wr in user order, and seals it; on any error or panic wr
// is aborted. One shard buffer is reused for the whole run; generation
// runs on the shared worker pool. Cancellation is honored at shard
// granularity for the append (a partially filled shard is never
// written) and at user granularity inside the parallel fill (remaining
// fills become no-ops), so a cancelled build stops within roughly one
// user's generation time.
func sealRecords(ctx context.Context, wr recordWriter, lo, hi, shardUsers int, generate func(u int, rows [][features.NumFeatures]float64)) error {
	if shardUsers <= 0 {
		shardUsers = DefaultShardUsers
	}
	if shardUsers > hi-lo {
		shardUsers = hi - lo
	}
	defer wr.Abort() // a no-op once sealed; drops the temp file on error or panic
	lay := wr.Layout()
	rf := lay.RecordFloats()
	buf := make([]float64, shardUsers*rf)
	for base := lo; base < hi; base += shardUsers {
		n := min(shardUsers, hi-base)
		chunk := buf[:n*rf]
		par.ForEach(n, 0, func(i int) {
			if ctx.Err() != nil {
				return
			}
			rec := chunk[i*rf : (i+1)*rf : (i+1)*rf]
			generate(base+i, lay.RowsOf(rec))
			fillDerived(rec, lay)
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := wr.AppendUsers(chunk); err != nil {
			return err
		}
	}
	return wr.Finish()
}

// fillDerived computes a record's sorted columns and day views from
// its rows region, in place. The arithmetic mirrors block.fillUser
// and Workspace.DaySorted exactly — same extraction order, same
// sort.Float64s — so a loaded snapshot is bit-identical to the
// in-memory build.
func fillDerived(rec []float64, lay snapshot.Layout) {
	rows := lay.RowsOf(rec)
	bpw, bpd := lay.BinsPerWeek, lay.BinsPerDay
	for week := 0; week < lay.Weeks; week++ {
		base := week * bpw
		for f := 0; f < features.NumFeatures; f++ {
			off := lay.SortedOff(week, f)
			col := rec[off : off+bpw : off+bpw]
			for b := 0; b < bpw; b++ {
				col[b] = rows[base+b][f]
			}
			doff := lay.DayOff(week, f)
			day := rec[doff : doff+7*bpd : doff+7*bpd]
			copy(day, col[:7*bpd])
			for d := 0; d < 7; d++ {
				sort.Float64s(day[d*bpd : (d+1)*bpd])
			}
			sort.Float64s(col)
		}
	}
}
