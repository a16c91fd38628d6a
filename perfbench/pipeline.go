package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro"
	"repro/internal/analysis"
	"repro/internal/attack"
	"repro/internal/collab"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/fleet"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Workload sizes. cold-build is sized so that generation and the store
// write path dominate; figures-* so that the analysis layers dominate
// on a store larger than one stream shard many times over; fleet is
// the paper's 350-host enterprise.
const (
	weeks        = 2
	coldUsers    = 1000
	figUsers     = 2000
	fleetHosts   = 350
	streamShard  = 256
	buildWorkers = 2
)

type sizes struct {
	Weeks        int `json:"weeks"`
	ColdUsers    int `json:"cold_build_users"`
	FigUsers     int `json:"figures_users"`
	FleetHosts   int `json:"fleet_hosts"`
	StreamShard  int `json:"stream_shard"`
	BuildWorkers int `json:"cold_build_workers"`
}

var workloadSizes = sizes{weeks, coldUsers, figUsers, fleetHosts, streamShard, buildWorkers}

// Populations are drawn from the benchmark seed but kept only when
// their generation cost is typical. The trace model's per-host rates
// are heavy-tailed: in some populations one host carries most of the
// generation cost (at seed 26, 95% of a 1000-user population's), and
// that host, generated on one goroutine, sets the run's time; and the
// mean cost per host of the rest still varies by 20-30% from seed
// to seed, which moves a cold build's time with it. A population is
// kept when its heaviest host carries at most maxHostShare of its
// cost and its mean cost per host lies within costBand of the typical
// mean for its size; populations outside are left unmeasured.
const (
	maxHostShare = 0.15
	costBand     = 0.10
	// referenceSeeds are the seeds 1..referenceSeeds whose passing
	// populations define the typical mean cost.
	referenceSeeds = 64
	maxCandidates  = 64
)

// populationCost returns a population's mean generation cost weight
// per host (Population.CostWeights) and the share its heaviest host
// carries.
func populationCost(users int, seed uint64) (mean, heaviestShare float64, err error) {
	pop, err := trace.NewPopulation(trace.Config{Users: users, Weeks: weeks, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	var total, heaviest float64
	for _, w := range pop.CostWeights() {
		total += w
		heaviest = max(heaviest, w)
	}
	return total / float64(users), heaviest / total, nil
}

// typicalCost is the median mean cost per host over the populations of
// seeds 1..referenceSeeds whose heaviest host passes maxHostShare.
func typicalCost(users int) (float64, error) {
	var means []float64
	for s := uint64(1); s <= referenceSeeds; s++ {
		mean, share, err := populationCost(users, s)
		if err != nil {
			return 0, err
		}
		if share <= maxHostShare {
			means = append(means, mean)
		}
	}
	if len(means) == 0 {
		return 0, fmt.Errorf("no reference population of %d users passes the heaviest-host cap", users)
	}
	return median(means), nil
}

// populationSeed derives the population seed of a workload of the
// given size from the benchmark seed: the benchmark seed itself when
// its population is typical, else the first typical candidate
// seed + k<<32. It returns the number of candidates skipped.
func populationSeed(seed uint64, users int) (uint64, int, error) {
	typical, err := typicalCost(users)
	if err != nil {
		return 0, 0, err
	}
	for k := 0; k < maxCandidates; k++ {
		cand := seed + uint64(k)<<32
		mean, share, err := populationCost(users, cand)
		if err != nil {
			return 0, 0, err
		}
		if share <= maxHostShare && math.Abs(mean/typical-1) <= costBand {
			return cand, k, nil
		}
	}
	return 0, 0, fmt.Errorf("no typical population of %d users within %d candidates of seed %d", users, maxCandidates, seed)
}

// warnings collects repro.Options.Warnf output. A snapshot fallback
// means the store the workload meant to exercise was not used, so any
// warning fails the operation that produced it.
type warnings struct {
	mu   sync.Mutex
	msgs []string
}

func (w *warnings) warnf(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.msgs = append(w.msgs, fmt.Sprintf(format, args...))
}

func (w *warnings) take() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.msgs) == 0 {
		return nil
	}
	err := fmt.Errorf("snapshot warnings: %v", w.msgs)
	w.msgs = nil
	return err
}

// enterprise opens the enterprise of users×weeks at seed backed by the
// store under dir and maps (or builds) it.
func enterprise(users int, seed uint64, dir string, buildWorkers, stream int, warn *warnings) (*repro.Enterprise, error) {
	ent, err := repro.NewEnterprise(repro.Options{
		Users:           users,
		Weeks:           weeks,
		Seed:            seed,
		SnapshotDir:     dir,
		SnapshotWorkers: buildWorkers,
		StreamShard:     stream,
		Warnf:           warn.warnf,
	})
	if err != nil {
		return nil, err
	}
	ent.Materialize()
	if err := warn.take(); err != nil {
		ent.Close()
		return nil, err
	}
	return ent, nil
}

// buildStore builds the store of users×weeks at seed into dir with the
// default single-pass build and returns its key.
func buildStore(users int, seed uint64, dir string) (snapshot.Key, error) {
	var warn warnings
	ent, err := enterprise(users, seed, dir, 0, 0, &warn)
	if err != nil {
		return snapshot.Key{}, err
	}
	key, err := snapshot.KeyFor(ent.Pop.Cfg)
	if cerr := ent.Close(); err == nil {
		err = cerr
	}
	return key, err
}

// storeDigest hashes the sealed snapshot and its manifest, and returns
// their combined size in MB.
func storeDigest(dir string, key snapshot.Key) (string, float64, error) {
	h := sha256.New()
	var n int64
	for _, p := range []string{key.Path(dir), key.ManifestPath(dir)} {
		f, err := os.Open(p)
		if err != nil {
			return "", 0, err
		}
		m, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", 0, fmt.Errorf("hashing %s: %w", p, err)
		}
		n += m
	}
	return hex.EncodeToString(h.Sum(nil)), float64(n) / 1e6, nil
}

// referenceBuild makes the single-pass cold-build store of seed under
// dir/reference, hashes it and removes it. Every two-range build must
// reproduce the hash.
func referenceBuild(seed uint64, dir string) (key snapshot.Key, digest string, storeMB float64, err error) {
	ref := filepath.Join(dir, "reference")
	if key, err = buildStore(coldUsers, seed, ref); err != nil {
		return key, "", 0, err
	}
	if digest, storeMB, err = storeDigest(ref, key); err != nil {
		return key, "", 0, err
	}
	return key, digest, storeMB, os.RemoveAll(ref)
}

// matchReference hashes the store under d, removes it, and compares
// the hash with the reference build's.
func matchReference(d string, key snapshot.Key, want string) error {
	defer os.RemoveAll(d)
	got, _, err := storeDigest(d, key)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("store under %s hashes %s, the single-pass build %s", d, got, want)
	}
	return nil
}

// runner is one of the paper's ten figure and table runners.
type runner struct {
	id  string
	run func(*repro.Enterprise, repro.ExperimentConfig) (any, error)
}

func wrap[T any](fn func(*repro.Enterprise, repro.ExperimentConfig) (T, error)) func(*repro.Enterprise, repro.ExperimentConfig) (any, error) {
	return func(e *repro.Enterprise, c repro.ExperimentConfig) (any, error) { return fn(e, c) }
}

// runners lists the ten runners in paper order.
var runners = []runner{
	{"Fig1", wrap(repro.Fig1)},
	{"Fig2", wrap(repro.Fig2)},
	{"Table2", wrap(repro.Table2)},
	{"Fig3a", wrap(repro.Fig3a)},
	{"Fig3b", wrap(repro.Fig3b)},
	{"Table3", wrap(repro.Table3)},
	{"Fig4a", wrap(repro.Fig4a)},
	{"Fig4b", wrap(repro.Fig4b)},
	{"Fig5a", wrap(repro.Fig5a)},
	{"Fig5b", wrap(repro.Fig5b)},
}

// figureDigest hashes the JSON encoding of runner results in order.
func figureDigest(results []any) (string, error) {
	h := sha256.New()
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("encoding %s: %w", runners[i].id, err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// figuresPass is one researcher loop: open a fresh enterprise on the
// store, map and verify it, run all ten runners, close it. It returns
// the digest of the ten results.
func figuresPass(seed uint64, dir string, stream int) (string, error) {
	var warn warnings
	ent, err := enterprise(figUsers, seed, dir, 0, stream, &warn)
	if err != nil {
		return "", err
	}
	defer ent.Close()
	cfg := repro.DefaultExperimentConfig()
	results := make([]any, len(runners))
	for i, r := range runners {
		if results[i], err = r.run(ent, cfg); err != nil {
			return "", fmt.Errorf("%s: %w", r.id, err)
		}
	}
	if err := warn.take(); err != nil {
		return "", err
	}
	return figureDigest(results)
}

// fleetPolicy and fleetConfig are the Chaos experiment's fault-free
// baseline at the paper's fleet size: 99th-percentile thresholds under
// full diversity, a Storm campaign on the distinct-connections
// feature, and collaborative detection at quorum 3 / 25%.
var fleetPolicy = core.Policy{Heuristic: core.Percentile{Q: 0.99}, Grouping: core.FullDiversity{}}

func fleetConfig(mats []*features.Matrix) fleet.Config {
	cfg := repro.DefaultExperimentConfig()
	return fleet.Config{
		Users:     len(mats),
		Matrices:  mats,
		Policy:    fleetPolicy,
		TrainWeek: cfg.TrainWeek,
		TestWeek:  cfg.TestWeek,
		Attack: &fleet.AttackPlan{
			Kind:    fleet.AttackStorm,
			Feature: features.Distinct,
			Seed:    cfg.Seed,
		},
		Collab: &collab.Config{Quorum: 3, QuorumFraction: 0.25},
	}
}

// stormOverlay is the Storm activity series fleetConfig's campaign
// overlays on every host's test week.
func stormOverlay(bins int, ws *analysis.Workspace) ([]float64, error) {
	bot, err := attack.NewStorm(attack.StormConfig{
		Bins:     bins,
		BinWidth: ws.BinWidth(),
		Seed:     repro.DefaultExperimentConfig().Seed,
	})
	if err != nil {
		return nil, err
	}
	return bot.Overlay().Overlay, nil
}

// checkPushedThresholds compares the thresholds the console pushed to
// every host with the analysis workspace's assignment of the same
// policy on the same training week.
func checkPushedThresholds(ws *analysis.Workspace, thresholds [][features.NumFeatures]float64) error {
	train := repro.DefaultExperimentConfig().TrainWeek
	for _, f := range features.All() {
		asn, err := ws.Assignment(f, train, fleetPolicy, nil, "")
		if err != nil {
			return err
		}
		for u := range thresholds {
			if got, want := thresholds[u][f], asn.Thresholds[u]; got != want {
				return fmt.Errorf("host %d %s: pushed threshold %v, workspace assignment %v", u, f, got, want)
			}
		}
	}
	return nil
}

// preflight runs the 20-user seed-1 reference population through the
// in-memory, mapped whole-heap and mapped streaming paths and compares
// Fig1, Fig3a and Table3 byte for byte with the repository's golden
// file, which it only reads.
func preflight(root, dir string) error {
	want, err := os.ReadFile(filepath.Join(root, "testdata", "golden_seed1_20users.json"))
	if err != nil {
		return fmt.Errorf("golden pre-flight: %w", err)
	}
	paths := []struct {
		name   string
		dir    string
		stream int
	}{
		{"in-memory", "", 0},
		{"mapped whole-heap", filepath.Join(dir, "golden"), 0},
		{"mapped streaming", filepath.Join(dir, "golden"), 8},
	}
	cfg := repro.DefaultExperimentConfig()
	for _, p := range paths {
		var warn warnings
		ent, err := enterprise(20, 1, p.dir, 0, p.stream, &warn)
		if err != nil {
			return fmt.Errorf("golden pre-flight (%s): %w", p.name, err)
		}
		var g struct {
			Fig1   *repro.Fig1Result
			Fig3a  *repro.Fig3aResult
			Table3 *repro.Table3Result
		}
		if g.Fig1, err = repro.Fig1(ent, cfg); err == nil {
			if g.Fig3a, err = repro.Fig3a(ent, cfg); err == nil {
				g.Table3, err = repro.Table3(ent, cfg)
			}
		}
		ent.Close()
		if err != nil {
			return fmt.Errorf("golden pre-flight (%s): %w", p.name, err)
		}
		got, err := json.MarshalIndent(&g, "", "  ")
		if err != nil {
			return err
		}
		if !bytes.Equal(append(got, '\n'), want) {
			return fmt.Errorf("golden pre-flight (%s): Fig1/Fig3a/Table3 differ from testdata/golden_seed1_20users.json", p.name)
		}
	}
	return os.RemoveAll(filepath.Join(dir, "golden"))
}
