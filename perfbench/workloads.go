package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/fleet"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// workload is one untraced end-to-end workload. setup prepares the
// state under dir and returns the iteration; it is run setupReps times,
// each state serving a share of the timed phase. Each call of the
// iteration is timed.
type workload struct {
	name  string
	users int
	// iterMetric is the name the report gives the iteration wall time.
	iterMetric string
	setup      func(seed uint64, dir string) (*state, error)
}

// state is what a workload's set-up leaves for its timed iterations.
type state struct {
	// iterate does one timed operation; its returned check runs
	// untimed afterwards, reports an output mismatch and returns the
	// operation's output. Every output of a run, whichever set-up it
	// came from, must be DeepEqual to the first.
	iterate func(i int) (check func() (any, error), err error)
	// storeMB is the size of the store the workload builds or reads.
	storeMB float64
	// after, when set, runs once after the timed phase on the run's
	// first output (cross-path checks).
	after func(first any) error
	// close, when set, releases what the state holds open.
	close func()
	// dir is the set-up's directory.
	dir string
}

var workloads = []workload{
	{"cold-build", coldUsers, "build_s", setupColdBuild},
	{"figures-warm", figUsers, "figures_s", func(seed uint64, dir string) (*state, error) { return setupFigures(seed, dir, 0) }},
	{"figures-stream", figUsers, "figures_s", func(seed uint64, dir string) (*state, error) { return setupFigures(seed, dir, streamShard) }},
	{"fleet", fleetHosts, "fleet_s", setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupColdBuild makes the single-pass reference build every timed
// two-range build must reproduce byte for byte.
func setupColdBuild(seed uint64, dir string) (*state, error) {
	key, want, storeMB, err := referenceBuild(seed, dir)
	if err != nil {
		return nil, err
	}
	return &state{
		storeMB: storeMB,
		iterate: func(i int) (func() (any, error), error) {
			d := filepath.Join(dir, fmt.Sprintf("build-%d", i))
			var warn warnings
			ent, err := enterprise(coldUsers, seed, d, buildWorkers, 0, &warn)
			if err != nil {
				return nil, err
			}
			if err := ent.Close(); err != nil {
				return nil, err
			}
			return func() (any, error) { return want, matchReference(d, key, want) }, nil
		},
	}, nil
}

// setupFigures builds the figures store; stream selects the streaming
// evaluation path (0 = whole-heap). After the timed phase one pass on
// the other path must give the same digest.
func setupFigures(seed uint64, dir string, stream int) (*state, error) {
	key, err := buildStore(figUsers, seed, dir)
	if err != nil {
		return nil, err
	}
	_, storeMB, err := storeDigest(dir, key)
	if err != nil {
		return nil, err
	}
	other := streamShard
	if stream > 0 {
		other = 0
	}
	return &state{
		storeMB: storeMB,
		iterate: func(int) (func() (any, error), error) {
			digest, err := figuresPass(seed, dir, stream)
			if err != nil {
				return nil, err
			}
			return func() (any, error) { return digest, nil }, nil
		},
		after: func(first any) error {
			digest, err := figuresPass(seed, dir, other)
			if err != nil {
				return err
			}
			if digest != first {
				return fmt.Errorf("stream shard %d gives figure digest %s, stream shard %d gives %s", other, digest, stream, first)
			}
			return nil
		},
	}, nil
}

// setupFleet builds the 350-host store and maps it; every iteration is
// one fleet.Run over the mapped matrices.
func setupFleet(seed uint64, dir string) (*state, error) {
	key, err := buildStore(fleetHosts, seed, dir)
	if err != nil {
		return nil, err
	}
	_, storeMB, err := storeDigest(dir, key)
	if err != nil {
		return nil, err
	}
	ws, err := analysis.Load(dir, key)
	if err != nil {
		return nil, err
	}
	cfg := fleetConfig(ws.Matrices())
	return &state{
		storeMB: storeMB,
		iterate: func(int) (func() (any, error), error) {
			res, err := fleet.Run(cfg)
			if err != nil {
				return nil, err
			}
			return func() (any, error) { return res, checkPushedThresholds(ws, res.Thresholds) }, nil
		},
		close: func() { ws.Close() },
	}, nil
}

// e2eResult is what a child process reports to the harness.
type e2eResult struct {
	// PopulationSeed is the seed of the population the section ran on
	// and Skipped the candidates populationSeed passed over.
	PopulationSeed uint64             `json:"population_seed"`
	Skipped        int                `json:"skipped"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Correct        bool               `json:"correct"`
	Errors         []string           `json:"errors,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
	Samples        map[string]int     `json:"samples"`
}

// runWorkload is the untraced child: pre-flight, then setupReps times a
// set-up followed by its share of the timed iterations, which together
// last the given duration.
func runWorkload(w workload, seed uint64, seconds int, root, dir string, progress func(ok bool)) e2eResult {
	res := e2eResult{Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	fail := func(err error) {
		res.Correct = false
		res.Errors = append(res.Errors, err.Error())
	}
	if err := preflight(root, dir); err != nil {
		fail(err)
		return res
	}

	// Each set-up starts from scratch in a fresh directory and is
	// followed by its share of the timed phase, so that the iterations
	// sample the whole run and not only its end: on a shared host the
	// machine's speed drifts over tens of seconds.
	var setups, rawSetups, walls, rawWalls, cpus, peaks []float64
	var st *state
	var first any
	var stolen float64
	var timedFor time.Duration
	phase := time.Duration(seconds) * time.Second
	i := 0
	for r := 0; r < setupReps; r++ {
		if st != nil {
			if st.close != nil {
				st.close()
			}
			if err := os.RemoveAll(st.dir); err != nil {
				fail(err)
				return res
			}
		}
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", r))
		runtime.GC()
		start := now()
		var err error
		if st, err = w.setup(seed, d); err != nil {
			fail(fmt.Errorf("setup: %w", err))
			return res
		}
		st.dir = d
		sp := since(start)
		setups = append(setups, sp.unstolenWall())
		rawSetups = append(rawSetups, sp.wall)

		// This set-up's share of the timed phase, at least one
		// iteration; an iteration that overruns one share shortens the
		// next.
		share := phase * time.Duration(r+1) / setupReps
		for n := 0; n == 0 || timedFor < share; n, i = n+1, i+1 {
			t := time.Now()
			// Start every iteration from a collected heap, so that no
			// iteration pays for its predecessor's garbage. The freed
			// memory stays with the Go heap: returned to the kernel, a
			// virtual machine's host may reclaim it, and touching it
			// again costs a host fault whose price varies from run to
			// run.
			runtime.GC()
			sp, check, err := timedIteration(st, i)
			var out any
			if err == nil {
				out, err = check()
			}
			if err == nil {
				if first == nil {
					first = out
				} else if !reflect.DeepEqual(out, first) {
					err = fmt.Errorf("output differs from the first iteration's")
				}
			}
			res.Attempted++
			if err != nil {
				res.Failed++
				res.Errors = append(res.Errors, fmt.Sprintf("iteration %d: %v", i, err))
			} else {
				walls = append(walls, sp.unstolenWall())
				rawWalls = append(rawWalls, sp.wall)
				cpus = append(cpus, sp.cpu)
				peaks = append(peaks, sp.rssMB)
				stolen += sp.stolen
				fmt.Fprintf(os.Stderr, "perfbench: iteration %d: %.3f s wall, %.3f s CPU, %.2f s stolen by the host\n",
					i, sp.wall, sp.cpu, sp.stolen)
			}
			progress(err == nil)
			timedFor += time.Since(t)
		}
	}
	if st.close != nil {
		defer st.close()
	}
	if st.after != nil && first != nil {
		if err := st.after(first); err != nil {
			fail(err)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.Metrics["setup_s"] = median(setups)
	res.Samples["setup_s"] = len(setups)
	res.Metrics["raw_setup_s"] = median(rawSetups)
	res.Samples["raw_setup_s"] = len(rawSetups)
	res.Metrics["store_mb"] = st.storeMB
	res.Metrics[w.iterMetric] = median(walls)
	res.Samples[w.iterMetric] = len(walls)
	res.Metrics["raw_"+w.iterMetric] = median(rawWalls)
	res.Samples["raw_"+w.iterMetric] = len(rawWalls)
	res.Metrics["host_steal_s"] = stolen
	res.Metrics["cpu_s"] = median(cpus)
	res.Samples["cpu_s"] = len(cpus)
	res.Metrics["peak_rss_mb"] = median(peaks)
	res.Samples["peak_rss_mb"] = len(peaks)
	res.Metrics["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	return res
}

// timedIteration runs one iteration, turning a panic on the calling
// goroutine into an error.
func timedIteration(st *state, i int) (sp span, check func() (any, error), err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	sp, err = timed(func() error {
		var err error
		check, err = st.iterate(i)
		return err
	})
	return sp, check, err
}
