package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

// streamTrain builds a heavy-tail-ish population of training
// distributions: mostly small integer counts with a few heavy users.
func streamTrain(rng *rand.Rand, users int) []*stats.Empirical {
	dists := make([]*stats.Empirical, users)
	for u := range dists {
		n := 20 + rng.Intn(30)
		scale := 1.0
		if rng.Intn(7) == 0 {
			scale = 40
		}
		col := make([]float64, n)
		for i := range col {
			col[i] = math.Floor(rng.ExpFloat64() * 6 * scale)
		}
		sort.Float64s(col)
		dists[u] = stats.MustEmpirical(col)
	}
	return dists
}

// foldPlan runs the full streaming protocol over dists in the given
// user order with the given worker count.
func foldPlan(t *testing.T, policy Policy, dists []*stats.Empirical, attack []float64, order []int, workers int) *Assignment {
	t.Helper()
	stat := make([]float64, len(dists))
	for u, d := range dists {
		stat[u] = d.MustQuantile(0.99)
	}
	plan, err := NewStreamPlan(policy, stat, attack)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.ForEachErr(len(order), workers, func(i int) error {
		u := order[i]
		return plan.FoldUsers(u, dists[u:u+1])
	}); err != nil {
		t.Fatal(err)
	}
	asn, err := plan.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return asn
}

// TestStreamPlanMatchesConfigure pins the streaming assignment
// DeepEqual to ConfigureWith for every policy shape the experiment
// runners use, across fold orders and a parallel fold. Run under
// -race this is also the fold's race guard: workers is forced above 1
// even on single-CPU hosts.
func TestStreamPlanMatchesConfigure(t *testing.T) {
	attack := []float64{3, 10, 45, 200}
	heuristics := []Heuristic{
		Percentile{Q: 0.99},
		UtilityOptimal{W: 0.4},
		FMeasureOptimal{},
	}
	groupings := []Grouping{
		Homogeneous{},
		FullDiversity{},
		PartialDiversity{NumGroups: 4},
		KMeansGrouping{K: 3, Seed: 9},
	}
	for _, seed := range []int64{53, 87} {
		rng := rand.New(rand.NewSource(seed))
		dists := streamTrain(rng, 37)
		for _, h := range heuristics {
			for _, grp := range groupings {
				policy := Policy{Heuristic: h, Grouping: grp}
				want, err := ConfigureWith(ConfigureInput{Train: dists, Policy: policy, Attack: attack})
				if err != nil {
					t.Fatalf("%s: %v", policy.Name(), err)
				}
				order := rng.Perm(len(dists))
				for _, workers := range []int{1, 4} {
					got := foldPlan(t, policy, dists, attack, order, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s workers=%d: streaming assignment diverges from ConfigureWith",
							seed, policy.Name(), workers)
					}
					for i := range got.Thresholds {
						if math.Float64bits(got.Thresholds[i]) != math.Float64bits(want.Thresholds[i]) {
							t.Fatalf("%s: threshold %d bits differ", policy.Name(), i)
						}
					}
				}
			}
		}
	}
}

// TestStreamPlanNoAttack covers the Percentile policies the
// nil-attack runners (Fig4, Table2) build assignments with.
func TestStreamPlanNoAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dists := streamTrain(rng, 21)
	for _, grp := range []Grouping{Homogeneous{}, FullDiversity{}, PartialDiversity{NumGroups: 8}} {
		policy := Policy{Heuristic: Percentile{Q: 0.99}, Grouping: grp}
		want, err := Configure(dists, policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := foldPlan(t, policy, dists, nil, rng.Perm(len(dists)), 3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: nil-attack streaming assignment diverges", policy.Name())
		}
	}
}

func TestStreamPlanErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dists := streamTrain(rng, 8)
	stat := make([]float64, len(dists))
	for u, d := range dists {
		stat[u] = d.MustQuantile(0.99)
	}

	if _, err := NewStreamPlan(Policy{Heuristic: Percentile{Q: 0.99}, Grouping: Homogeneous{}}, nil, nil); err == nil {
		t.Fatal("empty population accepted")
	}

	// MeanSigma cannot stream through merged groups...
	policy := Policy{Heuristic: MeanSigma{K: 3}, Grouping: Homogeneous{}}
	if _, err := NewStreamPlan(policy, stat, nil); err == nil ||
		!strings.Contains(err.Error(), "unsupported on multi-user groups") {
		t.Fatalf("MeanSigma on merged groups: err = %v", err)
	}
	// ...but is fine when every group is a singleton.
	policy.Grouping = FullDiversity{}
	want, err := Configure(dists, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := foldPlan(t, policy, dists, nil, rng.Perm(len(dists)), 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("MeanSigma singleton streaming diverges")
	}

	// A scorer without attack magnitudes must fail exactly like the
	// whole-heap path.
	plan, err := NewStreamPlan(Policy{Heuristic: UtilityOptimal{W: 0.4}, Grouping: Homogeneous{}}, stat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.FoldUsers(0, dists); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Finish(); err == nil ||
		!strings.Contains(err.Error(), "requires attack magnitudes") {
		t.Fatalf("scorer without magnitudes: err = %v", err)
	}

	// Finish before the fold completes reports the shortfall.
	plan, err = NewStreamPlan(Policy{Heuristic: Percentile{Q: 0.99}, Grouping: Homogeneous{}}, stat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.FoldUsers(0, dists[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Finish(); err == nil || !strings.Contains(err.Error(), "folded 1 of 8") {
		t.Fatalf("partial fold: err = %v", err)
	}

	// Out-of-range and empty users error rather than corrupt.
	if err := plan.FoldUsers(99, dists[:1]); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if err := plan.FoldUsers(7, dists[:2]); err == nil {
		t.Fatal("range running past the population accepted")
	}
	if err := plan.FoldUsers(1, []*stats.Empirical{nil}); err == nil || !strings.Contains(err.Error(), "no training data") {
		t.Fatalf("nil dist: err = %v", err)
	}
}

// TestStreamPlanRejectsDoubleFold pins the folded marks: a fold count
// alone would let user 3 folded twice stand in for user 4 never
// folded, and Finish would return a wrong assignment. The second fold
// of a user must fail, and Finish must name the user left out.
func TestStreamPlanRejectsDoubleFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dists := streamTrain(rng, 8)
	stat := make([]float64, len(dists))
	for u, d := range dists {
		stat[u] = d.MustQuantile(0.99)
	}
	plan, err := NewStreamPlan(Policy{Heuristic: Percentile{Q: 0.99}, Grouping: Homogeneous{}}, stat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.FoldUsers(0, dists[:4]); err != nil {
		t.Fatal(err)
	}
	if err := plan.FoldUsers(3, dists[3:4]); err == nil || !strings.Contains(err.Error(), "user 3 folded twice") {
		t.Fatalf("second fold of user 3: err = %v", err)
	}
	if err := plan.FoldUsers(5, dists[5:]); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Finish(); err == nil || !strings.Contains(err.Error(), "user 4 was never folded") {
		t.Fatalf("Finish with user 4 unfolded: err = %v", err)
	}
}

// TestFoldUsersShardsMatchConfigure folds the population in contiguous
// shards of 1, 7 and n users, shards in parallel, under every policy
// the runners configure (monoculture, partial and full diversity, each
// with Percentile and UtilityOptimal): the assignment must equal
// ConfigureWith bit for bit.
func TestFoldUsersShardsMatchConfigure(t *testing.T) {
	attack := []float64{3, 10, 45, 200}
	rng := rand.New(rand.NewSource(29))
	dists := streamTrain(rng, 41)
	n := len(dists)
	stat := make([]float64, n)
	for u, d := range dists {
		stat[u] = d.MustQuantile(0.99)
	}
	for _, h := range []Heuristic{Percentile{Q: 0.99}, UtilityOptimal{W: 0.4}} {
		for _, grp := range []Grouping{Homogeneous{}, PartialDiversity{NumGroups: 4}, FullDiversity{}} {
			policy := Policy{Heuristic: h, Grouping: grp}
			want, err := ConfigureWith(ConfigureInput{Train: dists, Policy: policy, Attack: attack})
			if err != nil {
				t.Fatal(err)
			}
			for _, shard := range []int{1, 7, n} {
				plan, err := NewStreamPlan(policy, stat, attack)
				if err != nil {
					t.Fatal(err)
				}
				shards := (n + shard - 1) / shard
				if err := par.ForEachErr(shards, 4, func(s int) error {
					lo := s * shard
					return plan.FoldUsers(lo, dists[lo:min(lo+shard, n)])
				}); err != nil {
					t.Fatal(err)
				}
				got, err := plan.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s shard %d: assignment diverges from ConfigureWith", policy.Name(), shard)
				}
				for u := range got.Thresholds {
					if math.Float64bits(got.Thresholds[u]) != math.Float64bits(want.Thresholds[u]) {
						t.Fatalf("%s shard %d: threshold %d bits differ", policy.Name(), shard, u)
					}
				}
			}
		}
	}
}
