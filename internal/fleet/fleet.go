// Package fleet is the in-process fleet simulator: one console server
// and N end-host agents wired over an in-memory net.Conn transport
// (netsim.MemNetwork), driven through the paper's full distributed
// loop — train, upload, threshold push, synchronized test-week
// replay, alert batching, collaborative quorum detection — with no
// real sockets and no wall-clock dependence.
//
// A fleet run is fully deterministic given its Config: the population
// is seeded (internal/trace), attack campaigns derive from a seeded
// xrand stream, agents connect in user order so the console's
// host-order-dependent threshold assignment is fixed, and replay
// advances on a logical barrier clock (Clock) instead of timers. The
// same Config therefore always produces an identical Result, byte for
// byte — which is what lets fleet_test.go pin the wire-level pipeline
// to the in-memory analysis pipeline (core.EvaluatePolicy over an
// analysis.Workspace) on identical populations, and what makes
// thousand-agent soak runs reproducible under the race detector.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/collab"
	"repro/internal/console"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes one fleet simulation.
type Config struct {
	// Users is the fleet size.
	Users int
	// Weeks of synthetic capture; must cover TrainWeek and TestWeek.
	Weeks int
	// Seed drives the population (and, with Attack.Seed, everything
	// else that is random).
	Seed uint64
	// BinWidth is the aggregation window (default 15 minutes).
	BinWidth time.Duration
	// WeeklyTrend overrides the population's weekly rate trend; zero
	// keeps the calibrated default.
	WeeklyTrend float64
	// Matrices optionally supplies pre-built per-user feature
	// matrices, one per host, all sharing one geometry that covers
	// TrainWeek and TestWeek. When set, population synthesis is
	// skipped entirely (Seed/BinWidth/WeeklyTrend are ignored) —
	// thousand-agent soak runs share one generation pass instead of
	// re-synthesizing hundreds of millions of connections per run.
	// The matrices are only read during the run.
	Matrices []*features.Matrix
	// SnapshotDir points at the on-disk workspace store. When set
	// (and Matrices is nil) the run maps the population's matrices
	// from a content-addressed snapshot instead of synthesizing them
	// per agent — a warm thousand-agent soak skips generation
	// entirely — and on a miss materializes the snapshot first,
	// streamed in bounded shards. Stale or corrupt snapshots fall
	// back to per-agent synthesis.
	SnapshotDir string

	// Policy is the enterprise configuration policy the console
	// applies.
	Policy core.Policy
	// AttackMagnitudes feed objective-optimizing heuristics (may be
	// nil for percentile-style heuristics).
	AttackMagnitudes []float64

	// TrainWeek and TestWeek implement the week-n-train /
	// week-n+1-test methodology (defaults 0 and 1).
	TrainWeek, TestWeek int
	// FlushEvery batches alerts every N windows; zero means one
	// simulated day. Each flush is also one logical clock tick.
	FlushEvery int

	// Attack optionally injects a campaign into the test week.
	Attack *AttackPlan
	// Collab optionally runs collaborative quorum detection over the
	// alert batches the console received.
	Collab *collab.Config
	// Watch is the feature whose fleet-wide alarm matrix feeds
	// collaborative detection; the zero value means the default, TCP.
	// DNS is feature 0 and collides with "unset" — use WatchDNS to
	// watch it on a clean fleet. An active Attack overrides Watch
	// with the attacked feature.
	Watch features.Feature

	// ThresholdTimeout bounds each agent's wait for thresholds
	// (default 5 minutes — generous because N agents under the race
	// detector configure slowly, and a deterministic run only ever
	// times out when genuinely wedged).
	ThresholdTimeout time.Duration
	// Logf receives console log lines (default silent).
	Logf func(format string, args ...any)

	// Faults, when set, wraps the in-memory transport in a seeded
	// chaos layer (netsim.FaultNetwork) driven by the fleet clock:
	// drops, delays, resets, partitions and crash windows fire on the
	// plan's schedule, and agents self-heal through them. Healing
	// windows (To >= 0) must start at tick 1 or later — tick 0 covers
	// connect, upload and the threshold push, which a valid run needs
	// exactly once. Windows opening at or before tick 0 must be
	// permanent (To < 0): those hosts are dead from the start and
	// excluded from the run. Nil runs on the perfect network,
	// byte-identical to pre-fault behavior.
	Faults *netsim.FaultPlan
	// Retry overrides the agents' self-healing budget; the zero value
	// picks fault-run defaults (unlimited redials with microsecond
	// backoffs — the fault plan, not wall time, decides who stays
	// down). Ignored without Faults.
	Retry console.RetryPolicy
	// AllowDegraded accepts fault plans with permanent losses: the
	// fleet finishes over its survivors (failing agents leave the
	// clock's barrier instead of cancelling it) and the Result records
	// who was lost. Required when Faults does not heal.
	AllowDegraded bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Users <= 0 {
		return c, fmt.Errorf("fleet: Config.Users must be positive, got %d", c.Users)
	}
	if c.Matrices != nil {
		if len(c.Matrices) != c.Users {
			return c, fmt.Errorf("fleet: %d matrices for %d users", len(c.Matrices), c.Users)
		}
		m0 := c.Matrices[0]
		for u, m := range c.Matrices {
			if m == nil || m.Bins() != m0.Bins() || m.BinWidth != m0.BinWidth {
				return c, fmt.Errorf("fleet: matrix %d geometry differs from matrix 0", u)
			}
		}
		c.Weeks = m0.Weeks()
		c.BinWidth = m0.BinWidth
	}
	if c.TrainWeek == 0 && c.TestWeek == 0 {
		c.TrainWeek, c.TestWeek = 0, 1
	}
	if c.TrainWeek < 0 || c.TestWeek < 0 || c.TrainWeek == c.TestWeek {
		return c, fmt.Errorf("fleet: bad train/test weeks %d/%d", c.TrainWeek, c.TestWeek)
	}
	minWeeks := c.TrainWeek + 1
	if c.TestWeek >= c.TrainWeek {
		minWeeks = c.TestWeek + 1
	}
	if c.Weeks < minWeeks {
		return c, fmt.Errorf("fleet: %d weeks do not cover train week %d and test week %d",
			c.Weeks, c.TrainWeek, c.TestWeek)
	}
	if c.Policy.Heuristic == nil || c.Policy.Grouping == nil {
		return c, fmt.Errorf("fleet: Config.Policy incomplete")
	}
	if c.Attack.active() && !c.Attack.Feature.Valid() {
		return c, fmt.Errorf("fleet: invalid attacked feature %d", int(c.Attack.Feature))
	}
	switch {
	case c.Watch == WatchDNS:
		c.Watch = features.DNS
	case c.Watch == 0:
		c.Watch = features.TCP
	case !c.Watch.Valid():
		return c, fmt.Errorf("fleet: invalid watch feature %d", int(c.Watch))
	}
	if c.Attack.active() {
		c.Watch = c.Attack.Feature
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return c, fmt.Errorf("fleet: %w", err)
		}
		for _, w := range c.Faults.Partitions {
			if w.To >= 0 && w.From < 1 {
				return c, fmt.Errorf("fleet: healing partition [%d, %d) must start at tick >= 1 (tick 0 covers connect/upload/push)", w.From, w.To)
			}
		}
		for _, w := range c.Faults.Crashes {
			if w.To >= 0 && w.From < 1 {
				return c, fmt.Errorf("fleet: healing crash window [%d, %d) of host %d must start at tick >= 1 (tick 0 covers connect/upload/push)", w.From, w.To, w.Host)
			}
		}
		if !c.Faults.Heals() && !c.AllowDegraded {
			return c, fmt.Errorf("fleet: fault plan has permanent losses; set AllowDegraded")
		}
	}
	return c, nil
}

// WatchDNS is the Config.Watch sentinel for watching
// num-DNS-connections on a clean fleet: DNS is feature 0, which an
// untyped Config cannot distinguish from "unset, default to TCP".
const WatchDNS features.Feature = -1

// Result is everything a fleet run observed, in deterministic order:
// per-host threshold assignments as pushed over the wire, per-host
// alarm series as received by the console, and the collaborative
// fleet-event series. Two runs of the same Config produce
// reflect.DeepEqual Results.
type Result struct {
	// Policy is the console's policy name.
	Policy string
	// Users is the fleet size; TestBins the monitored window count.
	Users, TestBins int
	// WatchFeature is the feature Alarms/FleetEvents cover.
	WatchFeature features.Feature
	// Epoch is the console's final configuration epoch.
	Epoch int

	// Thresholds[u] is the full six-feature threshold vector host u
	// received.
	Thresholds [][features.NumFeatures]float64
	// Groups[u] is the configuration group host u landed in.
	Groups []int

	// AlertCounts[u] is the console's tally for host u (all
	// features); TotalAlerts the fleet-wide sum.
	AlertCounts []int
	TotalAlerts int

	// Alarms[u][b] reports whether host u alarmed on the watch
	// feature in test window b, rebuilt from the console's alert log
	// (duplicates deduplicated) — the console-side ground truth.
	Alarms [][]bool

	// AttackedWindows[b] marks the test windows the attack plan made
	// positive (all false without an attack).
	AttackedWindows []bool

	// FleetVotes/FleetEvents are the collaborative detector's
	// per-window weighted votes and quorum events (nil without a
	// Collab config). FleetConfusion scores events against
	// AttackedWindows (nil without an active attack).
	FleetVotes     []int
	FleetEvents    []bool
	FleetConfusion *stats.Confusion

	// Survivors counts the hosts that completed the run. On a healthy
	// or fully-healing run it equals Users, and the degraded fields
	// below are nil/zero — which is exactly what lets the convergence
	// suite DeepEqual a healing fault run against its fault-free twin.
	Survivors int
	// Lost lists hosts that never finished: dead from the start, or
	// crashed permanently mid-run (sorted; nil when none).
	Lost []int
	// Partitioned lists hosts that never finished because a permanent
	// network partition cut them off (sorted; nil when none).
	Partitioned []int
	// Lagging lists survivors whose final thresholds trail the
	// console's epoch (sorted; nil when none).
	Lagging []int
	// EffectiveQuorum is the absolute quorum collaborative detection
	// actually used, resolved over the surviving population (zero
	// without a Collab config).
	EffectiveQuorum int
	// SnapshotFallbacks counts snapshot-store fallback events (stale,
	// corrupt or unwritable store) during this run; 0 on warm or
	// storeless runs.
	SnapshotFallbacks int
}

// openFleetSnapshot maps the workspace snapshot of the run's
// population, cold-building it (sharded) on a miss. Any failure —
// unaddressable config, unwritable directory — returns nil and the
// run falls back to per-agent synthesis; a snapshot is an
// accelerator, never a correctness dependency. Fallback events are
// logged and counted so Result.SnapshotFallbacks surfaces them.
func openFleetSnapshot(cfg Config) (*analysis.Workspace, int) {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	fallbacks := 0
	warn := func(stage string, err error) {
		fallbacks++
		logf("fleet: snapshot %s fallback (%s): %v", stage, cfg.SnapshotDir, err)
	}
	tcfg := trace.Config{
		Users:       cfg.Users,
		Weeks:       cfg.Weeks,
		Seed:        cfg.Seed,
		BinWidth:    cfg.BinWidth,
		WeeklyTrend: cfg.WeeklyTrend,
	}
	key, err := snapshot.KeyFor(tcfg)
	if err != nil {
		warn("key", err)
		return nil, fallbacks
	}
	pop, err := trace.NewPopulation(tcfg)
	if err != nil {
		return nil, fallbacks
	}
	ws, _, err := analysis.LoadOrMaterialize(context.Background(), cfg.SnapshotDir, key, 0, warn,
		func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		})
	if err != nil {
		return nil, fallbacks
	}
	return ws, fallbacks
}

// Run executes one fleet simulation to completion.
func Run(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Resolve the per-host matrices: pre-built, mapped from the
	// snapshot store, or synthesized lazily inside each agent's
	// goroutine from the seeded population.
	snapshotFallbacks := 0
	if cfg.Matrices == nil && cfg.SnapshotDir != "" {
		ws, fallbacks := openFleetSnapshot(cfg)
		snapshotFallbacks = fallbacks
		if ws != nil {
			// The mapped views live until every agent is done; Run's
			// other defers (server close, agent closes) are declared
			// later, so they unwind first.
			defer ws.Close()
			cfg.Matrices = ws.Matrices()
		}
	}
	var matrixOf func(u int) *features.Matrix
	var bpw int
	var binWidth time.Duration
	if cfg.Matrices != nil {
		matrixOf = func(u int) *features.Matrix { return cfg.Matrices[u] }
		bpw = cfg.Matrices[0].BinsPerWeek()
		binWidth = cfg.Matrices[0].BinWidth
	} else {
		pop, err := trace.NewPopulation(trace.Config{
			Users:       cfg.Users,
			Weeks:       cfg.Weeks,
			Seed:        cfg.Seed,
			BinWidth:    cfg.BinWidth,
			WeeklyTrend: cfg.WeeklyTrend,
		})
		if err != nil {
			return nil, err
		}
		matrixOf = func(u int) *features.Matrix { return pop.Users[u].Series() }
		bpw = pop.Cfg.BinsPerWeek()
		binWidth = pop.Cfg.BinWidth
	}
	flushEvery := cfg.FlushEvery
	if flushEvery <= 0 {
		flushEvery = bpw / 7 // one simulated day
	}

	// Resolve the campaign up front: victim subset and (for Storm)
	// the shared bot activity series are seeded, not scheduled.
	var victims map[int]bool
	var storm []float64
	if cfg.Attack.active() {
		if victims, err = cfg.Attack.victimSet(cfg.Users); err != nil {
			return nil, err
		}
		if cfg.Attack.Kind == AttackStorm {
			if storm, err = cfg.Attack.stormSeries(bpw, binWidth); err != nil {
				return nil, err
			}
		}
	}

	// Classify the fault plan's planned losses up front. A permanent
	// window open at or before tick 0 means the host is dead from the
	// start: it never connects, never uploads, and the console's
	// expected population excludes it. Mid-run permanent losses (From
	// >= 1) participate normally until their window opens.
	deadFromStart := make(map[int]bool)
	if cfg.Faults != nil {
		for u := 0; u < cfg.Users; u++ {
			if from, _, ok := cfg.Faults.PermanentLoss(u); ok && from <= 0 {
				deadFromStart[u] = true
			}
		}
	}
	participants := cfg.Users - len(deadFromStart)
	if participants <= 0 {
		return nil, fmt.Errorf("fleet: fault plan kills all %d hosts at tick 0", cfg.Users)
	}

	srv, err := console.NewServer(console.ServerConfig{
		Policy:           cfg.Policy,
		ExpectedHosts:    participants,
		AttackMagnitudes: cfg.AttackMagnitudes,
		Logf:             cfg.Logf,
	})
	if err != nil {
		return nil, err
	}

	// The clock exists before any connection so it can drive the fault
	// layer: logical ticks (completed flush rounds) are the time base
	// partitions and crash windows fire on.
	clock := NewClock(participants)
	network := netsim.NewMemNetwork()
	var fnet *netsim.FaultNetwork
	if cfg.Faults != nil {
		if fnet, err = netsim.NewFaultNetwork(network, *cfg.Faults, clock); err != nil {
			return nil, err
		}
	}
	ln, err := network.Listen("console")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		<-serveDone
	}()

	// Under faults the agents need a redial path and a retry budget.
	// The defaults make healing a function of the fault plan alone:
	// unlimited redials, microsecond backoffs (wall time is noise
	// here — the logical clock is what gates a partition's heal), and
	// a short link wait so a flush into a dead partition fails fast
	// and spools instead of stalling the barrier.
	retry := cfg.Retry
	if cfg.Faults != nil && retry == (console.RetryPolicy{}) {
		retry = console.RetryPolicy{
			MaxDials:     -1,
			MaxOpRetries: 32,
			Backoff:      200 * time.Microsecond,
			BackoffMax:   2 * time.Millisecond,
			LinkWait:     5 * time.Millisecond,
			Seed:         cfg.Faults.Seed ^ 0xa5a5a5a5deadbeef,
		}
	}

	// Connect agents sequentially in user order. The console assigns
	// thresholds by first-seen host order, so connection order is part
	// of the deterministic contract — racing the dials here would make
	// partial-diversity group membership scheduler-dependent. Hosts
	// dead from the start are skipped entirely.
	agents := make([]*console.Agent, cfg.Users)
	defer func() {
		for _, a := range agents {
			if a != nil {
				_ = a.Close()
			}
		}
	}()
	for u := 0; u < cfg.Users; u++ {
		if deadFromStart[u] {
			continue
		}
		if fnet != nil {
			agents[u], err = console.Connect(console.AgentConfig{
				HostID:   uint32(u),
				Hostname: fmt.Sprintf("host-%d", u),
				Dial:     fnet.Dialer(u, "console"),
				Retry:    retry,
			})
		} else {
			var conn net.Conn
			if conn, err = network.Dial("console"); err != nil {
				return nil, err
			}
			agents[u], err = console.NewAgent(conn, uint32(u), fmt.Sprintf("host-%d", u))
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: connecting host %d: %w", u, err)
		}
	}

	// Drive every agent through the shared run loop, replay
	// synchronized on the logical clock (one tick per flush).
	trainLo, trainHi := cfg.TrainWeek*bpw, (cfg.TrainWeek+1)*bpw
	testLo, testHi := cfg.TestWeek*bpw, (cfg.TestWeek+1)*bpw
	reports := make([]*AgentReport, cfg.Users)
	errs := make([]error, cfg.Users)
	var wg sync.WaitGroup
	for u := 0; u < cfg.Users; u++ {
		if agents[u] == nil {
			continue
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			// A panic on one host's goroutine (its matrix, overlay or
			// log hook) is that host's error, not the process's. The
			// clock is cancelled so the other hosts stop instead of
			// waiting for it at the barrier.
			defer func() {
				if v := recover(); v != nil {
					errs[u] = fmt.Errorf("%w: %v\n%s", errAgentPanicked, v, debug.Stack())
					clock.Cancel()
				}
			}()
			m := matrixOf(u)
			var overlayFn func(console.Thresholds) ([]float64, error)
			if cfg.Attack.active() {
				overlayFn = func(thr console.Thresholds) ([]float64, error) {
					var trainDist *stats.Empirical
					if cfg.Attack.Kind == AttackMimicry {
						var err error
						trainDist, err = m.Distribution(cfg.Attack.Feature, trainLo, trainHi)
						if err != nil {
							return nil, err
						}
					}
					return cfg.Attack.overlayFor(u, victims, bpw, storm,
						trainDist, thr.Values[cfg.Attack.Feature])
				}
			}
			reports[u], errs[u] = RunAgent(AgentRun{
				Agent:            agents[u],
				Matrix:           m,
				TrainLo:          trainLo,
				TrainHi:          trainHi,
				MonitorLo:        testLo,
				MonitorHi:        testHi,
				FlushEvery:       flushEvery,
				ThresholdTimeout: cfg.ThresholdTimeout,
				OverlayFn:        overlayFn,
				OverlayFeature:   cfg.Attack.featureOrTCP(),
				Clock:            clock,
				SpoolFlushes:     cfg.Faults != nil,
				LeaveOnError:     cfg.AllowDegraded,
				Logf:             cfg.Logf,
			})
		}(u)
	}
	wg.Wait()
	for u, err := range errs {
		if errors.Is(err, errAgentPanicked) {
			return nil, fmt.Errorf("fleet: host %d: %w", u, err)
		}
	}

	deg := degraded{survivors: participants}
	if cfg.AllowDegraded {
		// Degraded mode: a failing agent left the barrier instead of
		// cancelling it, so the rest finished. Classify each casualty
		// by what the fault plan says happened to it.
		for u, runErr := range errs {
			switch {
			case agents[u] == nil:
				// Dead from the start — already excluded from the
				// participant count, only the classification is added.
				_, byPartition, _ := cfg.Faults.PermanentLoss(u)
				deg.add(u, byPartition)
			case runErr == nil:
				continue
			case errors.Is(runErr, ErrClockCancelled):
				return nil, fmt.Errorf("fleet: host %d: %w", u, runErr)
			default:
				deg.survivors--
				_, byPartition, planned := cfg.Faults.PermanentLoss(u)
				deg.add(u, planned && byPartition)
				if cfg.Logf != nil {
					cfg.Logf("fleet: host %d lost: %v", u, runErr)
				}
			}
		}
		if deg.survivors <= 0 {
			return nil, fmt.Errorf("fleet: no host survived the run")
		}
	} else {
		// A single failing agent cancels the clock, so most agents
		// finish with ErrClockCancelled — report the root cause, not
		// the cascade.
		cancelled := -1
		for u, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, ErrClockCancelled) {
				if cancelled < 0 {
					cancelled = u
				}
				continue
			}
			return nil, fmt.Errorf("fleet: host %d: %w", u, err)
		}
		if cancelled >= 0 {
			return nil, fmt.Errorf("fleet: host %d: %w", cancelled, ErrClockCancelled)
		}
	}

	res, err := buildResult(cfg, srv, reports, storm, testLo, testHi, deg)
	if err != nil {
		return nil, err
	}
	res.SnapshotFallbacks = snapshotFallbacks
	return res, nil
}

// errAgentPanicked marks a host whose goroutine panicked. It fails the
// run in degraded mode too: a panic is a bug, not a casualty.
var errAgentPanicked = errors.New("agent goroutine panicked")

// degraded accumulates the run's casualty accounting.
type degraded struct {
	survivors   int
	lost        []int
	partitioned []int
}

func (d *degraded) add(u int, byPartition bool) {
	if byPartition {
		d.partitioned = append(d.partitioned, u)
	} else {
		d.lost = append(d.lost, u)
	}
}

// sortedOrNil sorts s ascending, returning nil for an empty slice so
// Result comparisons treat "no casualties" one way only.
func sortedOrNil(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	sort.Ints(s)
	return s
}

// featureOrTCP returns the attacked feature, or TCP for a nil plan
// (the value is unused without an overlay; it just must be valid).
func (p *AttackPlan) featureOrTCP() features.Feature {
	if p.active() {
		return p.Feature
	}
	return features.TCP
}

// buildResult assembles the deterministic Result from the console's
// state and the per-agent reports.
func buildResult(cfg Config, srv *console.Server, reports []*AgentReport, storm []float64, testLo, testHi int, deg degraded) (*Result, error) {
	res := &Result{
		Policy:       cfg.Policy.Name(),
		Users:        cfg.Users,
		TestBins:     testHi - testLo,
		WatchFeature: cfg.Watch,
		Epoch:        srv.Epoch(),
		Thresholds:   make([][features.NumFeatures]float64, cfg.Users),
		Groups:       make([]int, cfg.Users),
		AlertCounts:  make([]int, cfg.Users),
		Survivors:    deg.survivors,
		Lost:         sortedOrNil(deg.lost),
		Partitioned:  sortedOrNil(deg.partitioned),
	}
	for u, rep := range reports {
		if rep == nil {
			// Casualty: no thresholds ever confirmed on this host. The
			// console's tally still speaks for whatever it received
			// before the loss.
			res.Groups[u] = -1
			res.AlertCounts[u] = srv.AlertCount(uint32(u))
			res.TotalAlerts += res.AlertCounts[u]
			continue
		}
		res.Thresholds[u] = rep.Thresholds.Values
		res.Groups[u] = rep.Thresholds.Group
		res.AlertCounts[u] = srv.AlertCount(uint32(u))
		res.TotalAlerts += res.AlertCounts[u]
		if rep.Thresholds.Epoch < res.Epoch {
			res.Lagging = append(res.Lagging, u)
		}
	}

	// Rebuild the watch feature's alarm matrix from the console's
	// alert log: the console-side view of the fleet, deduplicated, so
	// neither arrival order nor repeated batches can perturb it.
	tally, err := collab.NewTally(cfg.Users, res.TestBins)
	if err != nil {
		return nil, err
	}
	for _, batch := range srv.Alerts() {
		if int(batch.HostID) >= cfg.Users {
			return nil, fmt.Errorf("fleet: alert from unknown host %d", batch.HostID)
		}
		for _, a := range batch.Alerts {
			if features.Feature(a.Feature) != cfg.Watch {
				continue
			}
			if a.Bin < testLo || a.Bin >= testHi {
				return nil, fmt.Errorf("fleet: host %d alerted outside the test week (window %d)", batch.HostID, a.Bin)
			}
			if err := tally.Mark(int(batch.HostID), a.Bin-testLo); err != nil {
				return nil, err
			}
		}
	}
	res.Alarms = tally.Alarms()

	// Positives exist only if some victim actually carried malicious
	// volume: a mimicry campaign whose per-host size clamps to zero on
	// every victim injected nothing, so no window is attacked.
	injected := false
	for _, rep := range reports {
		if rep != nil && rep.OverlayActive {
			injected = true
			break
		}
	}
	if cfg.Attack.active() && injected {
		res.AttackedWindows = cfg.Attack.AttackedWindows(res.TestBins, storm)
	} else {
		res.AttackedWindows = make([]bool, res.TestBins)
	}

	if cfg.Collab != nil {
		// Degraded-mode quorum: resolve the (possibly fractional)
		// quorum over the surviving population, so the fleet never
		// demands votes from the dead. On a full-strength run this is
		// exactly the configured absolute quorum.
		cc := *cfg.Collab
		cc.Quorum = cc.ResolveQuorum(deg.survivors)
		cc.QuorumFraction = 0
		res.EffectiveQuorum = cc.Quorum
		det, err := collab.New(cc)
		if err != nil {
			return nil, err
		}
		if res.FleetVotes, err = det.Votes(res.Alarms); err != nil {
			return nil, err
		}
		if res.FleetEvents, err = det.Events(res.Alarms); err != nil {
			return nil, err
		}
		if cfg.Attack.active() {
			conf, err := det.Evaluate(res.Alarms, res.AttackedWindows)
			if err != nil {
				return nil, err
			}
			res.FleetConfusion = &conf
		}
	}
	return res, nil
}
