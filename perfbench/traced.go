package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/collab"
	"repro/internal/console"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// The traced run splits the pipeline into calls to each layer's public
// functions and times every call from here; the program itself carries
// no instrumentation. Each section alternates one untraced iteration
// (the end-to-end operation, as the untraced workload times it) with
// one traced decomposition of the same work, repeats the pair until its
// share of the time is spent, and reports medians. Every traced
// decomposition must reproduce the untraced outputs.

// layerStats accumulates named samples and reports their medians.
type layerStats struct {
	samples map[string][]float64
}

func (l *layerStats) add(name string, v float64) {
	if l.samples == nil {
		l.samples = map[string][]float64{}
	}
	l.samples[name] = append(l.samples[name], v)
}

// addSpan records a stage's wall time, CPU time, allocation and peak
// RSS.
func (l *layerStats) addSpan(stage string, sp span) {
	l.add(stage+".wall_s", sp.wall)
	l.add(stage+".cpu_s", sp.cpu)
	l.add(stage+".alloc_mb", sp.allocMB)
	l.add(stage+".rss_mb", sp.rssMB)
}

func (l *layerStats) into(res *e2eResult) {
	for k, v := range l.samples {
		res.Metrics[k] = median(v)
		res.Samples[k] = len(v)
	}
}

// tracedSection is one section's traced run: setup, then pairs of
// untraced and traced iterations.
type tracedSection interface {
	// untraced runs the end-to-end operation and returns its wall time.
	untraced() (float64, error)
	// traced runs the decomposition, records its stages into l and
	// returns its total wall time.
	traced(l *layerStats) (float64, error)
	close()
}

func runTraced(section string, seed uint64, seconds int, root, dir string, progress func(ok bool)) e2eResult {
	res := e2eResult{Correct: true, Metrics: map[string]float64{}, Samples: map[string]int{}}
	fail := func(err error) {
		res.Correct = false
		res.Errors = append(res.Errors, fmt.Sprintf("%s (traced): %v", section, err))
	}
	sub := filepath.Join(dir, section)
	if err := preflight(root, sub); err != nil {
		fail(err)
		return res
	}
	var sec tracedSection
	var err error
	switch section {
	case "cold-build":
		sec, err = newColdTrace(seed, sub)
	case "figures-warm":
		sec, err = newFiguresTrace(seed, filepath.Join(dir, "figures-store"), 0)
	case "figures-stream":
		sec, err = newFiguresTrace(seed, filepath.Join(dir, "figures-store"), streamShard)
	case "fleet":
		sec, err = newFleetTrace(seed, sub)
	default:
		err = fmt.Errorf("unknown section")
	}
	if err != nil {
		fail(fmt.Errorf("setup: %w", err))
		return res
	}
	defer sec.close()

	// The four sections share the run's time.
	budget := time.Duration(seconds) * time.Second / time.Duration(len(workloads))
	var l layerStats
	var bases, ratios []float64
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("panic: %v", p)
				}
			}()
			runtime.GC()
			base, err := sec.untraced()
			if err != nil {
				return err
			}
			runtime.GC()
			tr, err := sec.traced(&l)
			if err != nil {
				return err
			}
			bases = append(bases, base)
			ratios = append(ratios, tr/base)
			return nil
		}()
		res.Attempted++
		if err != nil {
			res.Failed++
			fail(fmt.Errorf("iteration %d: %w", i, err))
		}
		progress(err == nil)
	}
	l.into(&res)
	if len(ratios) > 0 {
		res.Metrics["e2e."+section+".trace_ratio"] = median(ratios)
		res.Samples["e2e."+section+".trace_ratio"] = len(ratios)
	}
	if section == "cold-build" && len(bases) > 0 {
		// Share of the untraced build the four phases account for.
		phases := 0.0
		for _, st := range []string{"trace.generate", "analysis.build_range", "snapshot.merge", "snapshot.load"} {
			phases += res.Metrics[st+".wall_s"]
		}
		res.Metrics["e2e.cold-build.phase_share"] = phases / median(bases)
	}
	return res
}

// ---------------------------------------------------------------------
// cold-build: generate → build ranges → merge → load

type coldTrace struct {
	seed uint64
	dir  string
	pop  *trace.Population
	key  snapshot.Key
	want string
	rows [][features.NumFeatures]float64
	n    int
}

func newColdTrace(seed uint64, dir string) (*coldTrace, error) {
	key, want, _, err := referenceBuild(seed, dir)
	if err != nil {
		return nil, err
	}
	pop, err := trace.NewPopulation(trace.Config{Users: coldUsers, Weeks: weeks, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &coldTrace{
		seed: seed, dir: dir, pop: pop, key: key, want: want,
		rows: make([][features.NumFeatures]float64, coldUsers*pop.Cfg.TotalBins()),
	}, nil
}

func (c *coldTrace) next() string {
	c.n++
	return filepath.Join(c.dir, fmt.Sprintf("build-%d", c.n))
}

func (c *coldTrace) untraced() (float64, error) {
	d := c.next()
	var warn warnings
	sp, err := timed(func() error {
		ent, err := enterprise(coldUsers, c.seed, d, buildWorkers, 0, &warn)
		if err != nil {
			return err
		}
		return ent.Close()
	})
	if err != nil {
		return 0, err
	}
	return sp.wall, matchReference(d, c.key, c.want)
}

func (c *coldTrace) traced(l *layerStats) (float64, error) {
	d := c.next()
	bins := c.pop.Cfg.TotalBins()
	userRows := func(u int) [][features.NumFeatures]float64 { return c.rows[u*bins : (u+1)*bins : (u+1)*bins] }
	start := time.Now()

	gen, err := timed(func() error {
		par.ForEach(coldUsers, 0, func(u int) { c.pop.Users[u].FillSeries(userRows(u)) })
		return nil
	})
	if err != nil {
		return 0, err
	}
	l.addSpan("trace.generate", gen)
	l.add("trace.user_weeks_per_s", float64(coldUsers*weeks)/gen.wall)

	// The same range cuts MaterializeDistributed makes, built one after
	// the other so each range's cost is its own.
	var build span
	var walls []float64
	for _, r := range snapshot.CutRanges(c.pop.CostWeights(), buildWorkers) {
		sp, err := timed(func() error {
			return analysis.BuildShardRange(context.Background(), d, c.key, r[0], r[1], 0,
				func(u int, rows [][features.NumFeatures]float64) { copy(rows, userRows(u)) })
		})
		if err != nil {
			return 0, err
		}
		build = build.add(sp)
		walls = append(walls, sp.wall)
	}
	l.addSpan("analysis.build_range", build)
	l.add("analysis.range_skew", maxOf(walls)/minOf(walls))

	merge, err := timed(func() error { _, err := snapshot.MergeShards(d, c.key); return err })
	if err != nil {
		return 0, err
	}
	l.addSpan("snapshot.merge", merge)
	_, storeMB, err := storeDigest(d, c.key)
	if err != nil {
		return 0, err
	}
	l.add("snapshot.merge_mb_per_s", storeMB/merge.wall)

	load, err := timed(func() error {
		ws, err := analysis.Load(d, c.key)
		if err != nil {
			return err
		}
		return ws.Close()
	})
	if err != nil {
		return 0, err
	}
	l.addSpan("snapshot.load", load)
	total := time.Since(start).Seconds()
	return total, matchReference(d, c.key, c.want)
}

func (c *coldTrace) close() {}

// ---------------------------------------------------------------------
// figures-warm / figures-stream: per-runner pass and stage isolation

type figuresTrace struct {
	seed   uint64
	dir    string
	key    snapshot.Key
	stream int
	tag    string // "warm" or "stream", part of every metric name
	digest string
}

func newFiguresTrace(seed uint64, dir string, stream int) (*figuresTrace, error) {
	// Both figures sections share one store: the first builds it, the
	// second finds it warm.
	key, err := buildStore(figUsers, seed, dir)
	if err != nil {
		return nil, err
	}
	tag := "warm"
	if stream > 0 {
		tag = "stream"
	}
	return &figuresTrace{seed: seed, dir: dir, key: key, stream: stream, tag: tag}, nil
}

func (f *figuresTrace) untraced() (float64, error) {
	var digest string
	sp, err := timed(func() error {
		var err error
		digest, err = figuresPass(f.seed, f.dir, f.stream)
		return err
	})
	if err != nil {
		return 0, err
	}
	if f.digest == "" {
		f.digest = digest
	} else if digest != f.digest {
		return 0, fmt.Errorf("figure digest %s differs from the first pass's %s", digest, f.digest)
	}
	return sp.wall, nil
}

func (f *figuresTrace) traced(l *layerStats) (float64, error) {
	cfg := repro.DefaultExperimentConfig()
	start := time.Now()

	// Pass 1: every runner alone, on a fresh enterprise.
	results := make([]any, len(runners))
	for i, r := range runners {
		var warn warnings
		ent, err := enterprise(figUsers, f.seed, f.dir, 0, f.stream, &warn)
		if err != nil {
			return 0, err
		}
		sp, err := timed(func() error {
			var err error
			results[i], err = r.run(ent, cfg)
			return err
		})
		ent.Close()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", r.id, err)
		}
		l.add("repro."+f.tag+"."+r.id+".wall_s", sp.wall)
		l.add("repro."+f.tag+"."+r.id+".alloc_mb", sp.allocMB)
	}
	total := time.Since(start).Seconds()
	digest, err := figureDigest(results)
	if err != nil {
		return 0, err
	}
	if digest != f.digest {
		return 0, fmt.Errorf("runners on fresh enterprises give digest %s, one enterprise gives %s", digest, f.digest)
	}

	// Pass 2: the stages the runners share, one at a time, on a fresh
	// workspace. Each stage's cost is what it adds to the ones before.
	runtime.GC()
	ws, err := analysis.Load(f.dir, f.key)
	if err != nil {
		return 0, err
	}
	defer ws.Close()
	ws.SetStreamShard(f.stream)
	stage := func(layer, name string, fn func() error) error {
		sp, err := timed(fn)
		if err != nil {
			return fmt.Errorf("%s.%s: %w", layer, name, err)
		}
		l.addSpan(layer+"."+f.tag+"."+name, sp)
		return nil
	}
	if err := stage("analysis", "tailstats", func() error {
		for _, feat := range features.All() {
			for _, q := range []float64{0.99, 0.999} {
				if _, err := ws.TailStats(feat, cfg.TrainWeek, q); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	var sweep []float64
	if err := stage("analysis", "sweep", func() error {
		sweep = ws.Sweep(cfg.Feature, cfg.TrainWeek, cfg.SweepPoints)
		return nil
	}); err != nil {
		return 0, err
	}
	pols := repro.Policies(core.UtilityOptimal{W: cfg.UtilityW})
	asns := make([]*core.Assignment, len(pols))
	if err := stage("analysis", "assignment", func() error {
		for p, pol := range pols {
			var err error
			if asns[p], err = ws.Assignment(cfg.Feature, cfg.TrainWeek, pol, sweep, fmt.Sprintf("sp%d", cfg.SweepPoints)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	overlay := sweepOverlay(ws.BinsPerWeek(), sweep)
	evals := make([]*core.EvalResult, len(pols))
	if err := stage("core", "evaluate", func() error {
		var test, attack [][]float64
		if !ws.Streaming() {
			test = ws.Raw(cfg.Feature, cfg.TestWeek)
			attack = make([][]float64, len(test))
			for u := range attack {
				attack[u] = overlay
			}
		}
		for p, pol := range pols {
			var err error
			if ws.Streaming() {
				evals[p], err = ws.EvaluateSharded(cfg.Feature, cfg.TestWeek, asns[p], overlay, 0)
			} else {
				evals[p], err = core.EvaluatePolicy(core.EvalInput{
					Test: test, Attack: attack, AttackMagnitudes: sweep, Policy: pol, Assignment: asns[p],
				})
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	// Fig3a (runners[3]) reports the utilities of the same evaluation.
	fig3a := results[3].(*repro.Fig3aResult)
	for p, ev := range evals {
		if !reflect.DeepEqual(ev.Utilities(cfg.UtilityW), fig3a.Utilities[p]) {
			return 0, fmt.Errorf("isolated evaluation of %s differs from Fig3a", pols[p].Name())
		}
	}
	storm, err := stormOverlay(ws.BinsPerWeek(), ws)
	if err != nil {
		return 0, err
	}
	if err := stage("analysis", "split_overlay", func() error {
		_, err := ws.SplitOverlay(features.Distinct, cfg.TestWeek, storm, "storm")
		return err
	}); err != nil {
		return 0, err
	}
	if ws.Streaming() {
		if err := f.traceShards(l, ws, cfg, asns[0], overlay, evals[0]); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// traceShards times each StreamShards callback of one sharded
// evaluation, done here with the same per-user scoring EvaluateSharded
// uses, and checks it against EvaluateSharded's result.
func (f *figuresTrace) traceShards(l *layerStats, ws *analysis.Workspace, cfg repro.ExperimentConfig, asn *core.Assignment, overlay []float64, want *core.EvalResult) error {
	points := make([]core.OperatingPoint, ws.Users())
	var mu sync.Mutex
	var walls []float64
	err := ws.StreamShards(0, func(view *analysis.Workspace, lo, hi int) error {
		start := time.Now()
		raw := view.Raw(cfg.Feature, cfg.TestWeek)
		for u := range raw {
			pt, err := core.ScorePoint(lo+u, raw[u], overlay, asn.Thresholds[lo+u])
			if err != nil {
				return err
			}
			points[lo+u] = pt
		}
		d := time.Since(start).Seconds()
		mu.Lock()
		walls = append(walls, d)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(points, want.Points) {
		return fmt.Errorf("per-shard scoring differs from EvaluateSharded")
	}
	l.add("analysis.stream.shards", float64(len(walls)))
	l.add("analysis.stream.shard_wall_s_p50", median(walls))
	l.add("analysis.stream.shard_wall_s_max", maxOf(walls))
	return nil
}

func (f *figuresTrace) close() {}

// sweepOverlay is the runners' simulated-attack overlay: every 4th
// window carries the next sweep size.
func sweepOverlay(bins int, sweep []float64) []float64 {
	ov := make([]float64, bins)
	k := 0
	for b := 3; b < bins; b += 4 {
		ov[b] = sweep[k%len(sweep)]
		k++
	}
	return ov
}

// ---------------------------------------------------------------------
// fleet: console, agents, clock and collaborative detection wired by hand

type fleetTrace struct {
	ws    *analysis.Workspace
	cfg   fleet.Config
	first *fleet.Result
}

func newFleetTrace(seed uint64, dir string) (*fleetTrace, error) {
	key, err := buildStore(fleetHosts, seed, dir)
	if err != nil {
		return nil, err
	}
	ws, err := analysis.Load(dir, key)
	if err != nil {
		return nil, err
	}
	return &fleetTrace{ws: ws, cfg: fleetConfig(ws.Matrices())}, nil
}

func (f *fleetTrace) untraced() (float64, error) {
	var res *fleet.Result
	sp, err := timed(func() error {
		var err error
		res, err = fleet.Run(f.cfg)
		return err
	})
	if err != nil {
		return 0, err
	}
	if f.first == nil {
		f.first = res
		if err := checkPushedThresholds(f.ws, res.Thresholds); err != nil {
			return 0, err
		}
	} else if !reflect.DeepEqual(res, f.first) {
		return 0, fmt.Errorf("fleet.Result differs from the first run's")
	}
	return sp.wall, nil
}

// countingConn counts the bytes an agent's connection carries in both
// directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (f *fleetTrace) traced(l *layerStats) (float64, error) {
	start := time.Now()
	cfg := f.cfg
	hosts := cfg.Users
	mats := cfg.Matrices
	bpw := mats[0].BinsPerWeek()
	trainLo, trainHi := cfg.TrainWeek*bpw, (cfg.TrainWeek+1)*bpw
	testLo, testHi := cfg.TestWeek*bpw, (cfg.TestWeek+1)*bpw
	storm, err := stormOverlay(bpw, f.ws)
	if err != nil {
		return 0, err
	}

	srv, err := console.NewServer(console.ServerConfig{Policy: cfg.Policy, ExpectedHosts: hosts})
	if err != nil {
		return 0, err
	}
	network := netsim.NewMemNetwork()
	ln, err := network.Listen("console")
	if err != nil {
		return 0, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-serveDone
	}()

	// Connect in host order, as fleet.Run does: the console assigns
	// thresholds by first-seen host order.
	var wire atomic.Int64
	agents := make([]*console.Agent, hosts)
	defer func() {
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
	}()
	for u := range agents {
		conn, err := network.Dial("console")
		if err != nil {
			return 0, err
		}
		if agents[u], err = console.NewAgent(countingConn{conn, &wire}, uint32(u), fmt.Sprintf("host-%d", u)); err != nil {
			return 0, err
		}
	}

	clock := fleet.NewClock(hosts)
	var firstUpload, lastThresholds atomic.Int64 // unix nanoseconds
	firstUpload.Store(1<<63 - 1)
	agentWalls := make([]float64, hosts)
	reports := make([]*fleet.AgentReport, hosts)
	errs := make([]error, hosts)
	var wg sync.WaitGroup
	for u := range agents {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			t0 := time.Now()
			for v := t0.UnixNano(); ; {
				old := firstUpload.Load()
				if v >= old || firstUpload.CompareAndSwap(old, v) {
					break
				}
			}
			reports[u], errs[u] = fleet.RunAgent(fleet.AgentRun{
				Agent:      agents[u],
				Matrix:     mats[u],
				TrainLo:    trainLo,
				TrainHi:    trainHi,
				MonitorLo:  testLo,
				MonitorHi:  testHi,
				FlushEvery: bpw / 7,
				OverlayFn: func(console.Thresholds) ([]float64, error) {
					for v := time.Now().UnixNano(); ; {
						old := lastThresholds.Load()
						if v <= old || lastThresholds.CompareAndSwap(old, v) {
							break
						}
					}
					return storm, nil
				},
				OverlayFeature: cfg.Attack.Feature,
				Clock:          clock,
			})
			agentWalls[u] = time.Since(t0).Seconds()
		}(u)
	}
	wg.Wait()
	done := time.Now()
	for u, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("host %d: %w", u, err)
		}
	}
	configure := time.Duration(lastThresholds.Load() - firstUpload.Load()).Seconds()
	replay := done.Sub(time.Unix(0, lastThresholds.Load())).Seconds()
	l.add("console.configure.wall_s", configure)
	l.add("fleet.replay.wall_s", replay)
	l.add("fleet.agent_wall_s_p50", median(agentWalls))
	l.add("fleet.agent_wall_s_max", maxOf(agentWalls))
	l.add("console.wire_bytes", float64(wire.Load()))
	alerts := 0
	for u := range agents {
		alerts += srv.AlertCount(uint32(u))
	}
	l.add("console.alerts", float64(alerts))
	l.add("console.alerts_per_s", float64(alerts)/replay)

	// Collaborative detection over the console's alert log, as the
	// fleet result builds it.
	var events []bool
	detect, err := timed(func() error {
		tally, err := collab.NewTally(hosts, testHi-testLo)
		if err != nil {
			return err
		}
		for _, batch := range srv.Alerts() {
			for _, a := range batch.Alerts {
				if features.Feature(a.Feature) == cfg.Attack.Feature {
					if err := tally.Mark(int(batch.HostID), a.Bin-testLo); err != nil {
						return err
					}
				}
			}
		}
		cc := *cfg.Collab
		cc.Quorum = cc.ResolveQuorum(hosts)
		cc.QuorumFraction = 0
		det, err := collab.New(cc)
		if err != nil {
			return err
		}
		if events, err = det.Events(tally.Alarms()); err != nil {
			return err
		}
		attacked := make([]bool, len(storm))
		for b, v := range storm {
			attacked[b] = v > 0
		}
		_, err = det.Evaluate(tally.Alarms(), attacked)
		return err
	})
	if err != nil {
		return 0, err
	}
	l.add("collab.detect.wall_s", detect.wall)
	total := time.Since(start).Seconds()

	// The hand-wired fleet must reproduce fleet.Run.
	want := f.first
	if alerts != want.TotalAlerts || !reflect.DeepEqual(events, want.FleetEvents) {
		return 0, fmt.Errorf("hand-wired fleet: %d alerts and events differ from fleet.Run's %d", alerts, want.TotalAlerts)
	}
	for u, rep := range reports {
		if rep.Thresholds.Values != want.Thresholds[u] {
			return 0, fmt.Errorf("hand-wired fleet: host %d thresholds differ from fleet.Run's", u)
		}
	}
	return total, nil
}

func (f *fleetTrace) close() { f.ws.Close() }
