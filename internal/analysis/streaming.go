package analysis

// Streaming bounded-heap evaluation: iterate a mapped snapshot in
// user-range shards through reused shard-sized workspace views, so a
// population-wide analysis touches one shard's working set at a time
// and peak RSS is set by the shard size, not the population.
//
// The pieces compose rather than fork the existing machinery:
//
//   - ViewRange(lo, hi) is a shard-sized Workspace sharing the parent's
//     mapping and matrices — its blocks wire through the exact same
//     ensureBlock/DaySorted lazy paths, just offset by userBase, so
//     every per-user value a view serves is bit-identical to what the
//     full workspace would serve for the same user.
//   - StreamShards fans the shards over the par pool and releases each
//     shard's mapped pages (snapshot.DropUserRange) as soon as its
//     callback returns.
//   - The population-wide entry points — TailStats, Sweep, Assignment
//     (via core.StreamPlan's bounded fold), EvaluateSharded and the
//     experiment runners above them — route through StreamShards when
//     SetStreamShard has armed the workspace, writing each shard's
//     slice of the population-indexed result.
//
// Fold contract: every per-shard partial lands in a disjoint slice of
// a population-sized output (user-indexed results) or folds through a
// commutative, associative reduction (max for Sweep, the multiset
// accumulators of core.StreamPlan), so shard completion order — which
// the worker pool does not define — can never change a result. That,
// plus the views' bit-identical reads, is why the streaming path is
// equivalence-pinned against the whole-heap path rather than merely
// close.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/par"
)

// SetStreamShard arms streaming evaluation: population-wide analyses
// on this workspace will iterate the snapshot in shards of at most n
// users (n <= 0 disarms). It only takes effect on snapshot-backed
// workspaces — an in-memory workspace already holds everything, so
// there is nothing to bound — and must be called before analyses run
// (results are memoized under path-independent keys, so late arming
// only affects not-yet-computed artifacts).
func (w *Workspace) SetStreamShard(n int) {
	if n < 0 {
		n = 0
	}
	w.streamShard = n
}

// StreamShard returns the armed shard size (0 = streaming off).
func (w *Workspace) StreamShard() int { return w.streamShard }

// Streaming reports whether population-wide analyses stream in
// bounded shards.
func (w *Workspace) Streaming() bool { return w.snap != nil && w.streamShard > 0 }

// ViewRange returns a shard-sized view of a snapshot-backed workspace
// covering local users [lo, hi) — a real Workspace whose user u is the
// parent's user lo+u. The view shares the parent's mapping and matrix
// headers; its columnar blocks and memo are its own, so they are
// garbage the moment the view is dropped. Views must not outlive the
// parent's Close.
func (w *Workspace) ViewRange(lo, hi int) *Workspace {
	if w.snap == nil {
		panic("analysis: ViewRange needs a snapshot-backed workspace")
	}
	if lo < 0 || hi <= lo || hi > w.users {
		panic(fmt.Sprintf("analysis: view range [%d, %d) outside population [0, %d)", lo, hi, w.users))
	}
	v := newWorkspace(w.matrices[lo:hi:hi], hi-lo, w.weeks, w.binsPerWeek, w.binWidth)
	v.snap = w.snap
	v.checks = w.checks
	v.userBase = w.userBase + lo
	return v
}

// StreamShards runs fn over the population in contiguous user-range
// shards of StreamShard users (DefaultShardUsers when unarmed), each
// through a fresh ViewRange view, fanned over the worker pool
// (workers < 1 = one per CPU). After fn returns for a shard, the
// shard's mapped pages are released from the resident set; fn must not
// retain views or any slice obtained from one past its return, except
// data it copied. Shards run concurrently: fn writes to shared state
// must target disjoint [lo, hi) slices or take their own locks. The
// lowest-indexed error wins, matching par.ForEachErr.
func (w *Workspace) StreamShards(workers int, fn func(view *Workspace, lo, hi int) error) error {
	if w.snap == nil {
		return fmt.Errorf("analysis: StreamShards needs a snapshot-backed workspace")
	}
	shard := w.streamShard
	if shard <= 0 {
		shard = DefaultShardUsers
	}
	if shard > w.users {
		shard = w.users
	}
	nShards := (w.users + shard - 1) / shard
	return par.ForEachErr(nShards, workers, func(s int) error {
		lo := s * shard
		hi := min(lo+shard, w.users)
		view := w.ViewRange(lo, hi)
		if err := fn(view, lo, hi); err != nil {
			return err
		}
		w.snap.DropUserRange(w.userBase+lo, w.userBase+hi)
		return nil
	})
}

// streamAssignment configures one policy with core.StreamPlan's
// bounded fold: pass A reads every user's grouping statistic (the
// training p99, exactly what ConfigureWith derives) off the mapped
// sorted columns shard by shard; pass B folds each user's training
// distribution into the plan. Returns ok == false — with no error —
// when the heuristic has no bounded fold over merged groups
// (core.MeanSigma under a merging policy); the caller falls back to
// the whole-heap configure, which reproduces any genuine error too.
func (w *Workspace) streamAssignment(f features.Feature, trainWeek int, pol core.Policy, attack []float64) (*core.Assignment, bool, error) {
	stat := make([]float64, w.users)
	err := w.StreamShards(0, func(view *Workspace, lo, hi int) error {
		dists := view.Dists(f, trainWeek)
		for u, d := range dists {
			t, err := d.Quantile(0.99)
			if err != nil {
				return fmt.Errorf("analysis: user %d %s: %w", lo+u, f, err)
			}
			stat[lo+u] = t
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	plan, err := core.NewStreamPlan(pol, stat, attack)
	if err != nil {
		return nil, false, nil
	}
	err = w.StreamShards(0, func(view *Workspace, lo, hi int) error {
		return plan.FoldUsers(lo, view.Dists(f, trainWeek))
	})
	if err != nil {
		return nil, false, err
	}
	asn, err := plan.Finish()
	if err != nil {
		return nil, false, err
	}
	return asn, true, nil
}

// EvaluateSharded scores a pre-configured assignment over one test
// week shard by shard — the streaming twin of core.EvaluatePolicy
// with EvalInput.Assignment set. overlay, when non-nil, is the shared
// per-window additive attack applied to every user (the shape the
// sweep runners use; every user has the same bin count). Results are
// bit-identical to the whole-heap evaluation: each user's operating
// point is core.ScorePoint over the same test column, threshold and
// overlay, written to its own population-indexed slot. workers < 1
// fans one shard per CPU.
func (w *Workspace) EvaluateSharded(f features.Feature, testWeek int, asn *core.Assignment, overlay []float64, workers int) (*core.EvalResult, error) {
	if asn == nil {
		return nil, fmt.Errorf("analysis: EvaluateSharded needs a configured assignment")
	}
	if len(asn.Thresholds) != w.users {
		return nil, fmt.Errorf("analysis: assignment covers %d users, population has %d", len(asn.Thresholds), w.users)
	}
	res := &core.EvalResult{Assignment: asn, Points: make([]core.OperatingPoint, w.users)}
	err := w.StreamShards(workers, func(view *Workspace, lo, hi int) error {
		raw := view.Raw(f, testWeek)
		for u := range raw {
			pt, err := core.ScorePoint(lo+u, raw[u], overlay, asn.Thresholds[lo+u])
			if err != nil {
				return err
			}
			res.Points[lo+u] = pt
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
