// Command tracegen materializes synthetic enterprise end-host packet
// traces to disk in the .etr format, one file per user — the role of
// the paper's windump-wrapper collection tool.
//
// Usage:
//
//	tracegen -out /tmp/traces -users 10 -weeks 1 [-seed 1] [-bin 15]
//	tracegen -snapshot /var/cache/repro -users 20000 -weeks 2
//
// Each file <out>/host-<id>.etr contains the user's full packet
// stream; internal/flows.ExtractTrace (or cmd/hidsd) turns it back
// into feature time series that agree bit-for-bit with the
// generator's fast path.
//
// With -snapshot, the population's feature workspace is additionally
// materialized into the content-addressed snapshot store (streamed in
// -shard-user batches, so a 100k-user enterprise fits laptop memory);
// -out may then be omitted to produce only the snapshot. A snapshot
// that already exists for these parameters is left untouched — the
// run reports the warm hit and skips generation.
//
// Distributed snapshot builds split the work across processes or
// hosts sharing the store directory:
//
//	tracegen -snapshot DIR -users 100000 -shard-range 0:50000      # host A
//	tracegen -snapshot DIR -users 100000 -shard-range 50000:100000 # host B
//	tracegen -snapshot DIR -users 100000 -workers 2                # merge
//
// Each -shard-range run seals its user slice as an independently
// checksummed part file. -workers N (N > 1) runs the build coordinator
// (internal/buildctl), the one builder that splits a population into
// user ranges: it adopts every verified part already in the store,
// builds the missing ranges on N in-process workers, and merges the
// parts into the canonical snapshot + manifest, byte-identical to a
// single-process build. The third command above therefore only
// merges; on an empty store the same command builds everything.
//
// -shard-range speaks the coordinator worker protocol: on success it
// prints one JSON line (range, sealed bytes, payload CRC, elapsed) on
// stdout and exits 0; transient build failures exit 3 (retryable),
// invalid key/range/config exit 4 (fatal). Human-readable progress
// goes to stderr.
//
// The coordinator tolerates failure: failed ranges back off and
// retry, stragglers are hedged, repeatedly failing ranges are re-cut,
// and an interrupted build resumes from the verified parts on disk.
// -fault injects a seeded chaos plan
// ("crash=0.3,slow=0.2,hang=0.1,corrupt=0.1,limit=2,slowms=50") for
// smoke-testing the coordinator against itself; -halt-after N stops
// after N newly sealed parts to exercise resumption. These flags need
// a coordinated build (-workers N > 1 or -hosts).
//
// Multi-host builds move the workers to other machines. Each worker
// host runs a daemon; the coordinator dispatches ranges to them over
// the internal/remotework transport and streams the sealed parts
// back into its own store:
//
//	tracegen -snapshot SCRATCH -serve 0.0.0.0:9470                  # worker hosts
//	tracegen -snapshot DIR -users 100000 -hosts hosta:9470,hostb:9470 # coordinator
//
// Streamed parts are CRC-checked chunk by chunk and resume from the
// received offset after a reconnect, so a daemon killed mid-stream
// costs only the missing tail. Hung hosts are detected by heartbeat
// and fail into the hedge path; repeat offenders are quarantined and
// re-admitted after probation; observed per-host throughput feeds the
// coordinator's range re-cuts. On exit, -hosts prints a one-line JSON
// transport summary (per-host attempts, heartbeat misses, bytes
// streamed and re-streamed, final weights). -serve takes -addr-file
// (write the bound address, for :0 ports) and -serve-delay (slow
// builds down for chaos-smoke kill windows); -chunk sets the stream
// chunk size.
//
// The store itself is managed with the gc subcommand:
//
//	tracegen gc -snapshot DIR [-keep N] [-max-bytes B] [-part-age D] [-dry-run]
//
// which keeps the newest N sealed snapshots within the byte budget
// and removes evicted snapshots, orphaned manifests, already merged
// part leftovers, and parts or quarantined *.bad corpses from builds
// abandoned longer than -part-age ago.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/buildctl"
	"repro/internal/features"
	"repro/internal/netsim"
	"repro/internal/remotework"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gc" {
		runGC(os.Args[2:])
		return
	}
	out := flag.String("out", "", "packet-trace output directory")
	users := flag.Int("users", 10, "number of end hosts")
	weeks := flag.Int("weeks", 1, "weeks of capture")
	seed := flag.Uint64("seed", 1, "population seed")
	binMinutes := flag.Int("bin", 15, "aggregation window in minutes")
	pcap := flag.Bool("pcap", false, "also write libpcap files (host-NNN.pcap) readable by tcpdump/wireshark")
	snapDir := flag.String("snapshot", "", "also materialize the feature workspace into this snapshot directory")
	shard := flag.Int("shard", 0, "users per shard when materializing the snapshot (0 = default)")
	workers := flag.Int("workers", 0, "coordinated build: N > 1 builds the snapshot as user ranges on N in-process workers, adopting parts already sealed, and merges (0/1 = single streaming build)")
	shardRange := flag.String("shard-range", "", "worker mode: build only users lo:hi as a sealed snapshot part (requires -snapshot)")
	ranges := flag.Int("ranges", 0, "coordinate: target number of build ranges (0 = one per worker)")
	retries := flag.Int("retries", 0, "coordinate: attempts per range before the build aborts (0 = default)")
	attemptTimeout := flag.Duration("attempt-timeout", 0, "coordinate: wall-clock bound per attempt (0 = none)")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinate: minimum straggler age before a duplicate attempt is hedged (0 = median-based only)")
	haltAfter := flag.Int("halt-after", 0, "coordinate: stop after N newly sealed parts (resumable; 0 = run to completion)")
	faultSpec := flag.String("fault", "", `coordinate: seeded chaos plan, e.g. "crash=0.3,slow=0.2,hang=0.1,corrupt=0.1,limit=2,slowms=50"`)
	faultSeed := flag.Uint64("fault-seed", 1, "coordinate: seed for -fault draws and retry jitter")
	serve := flag.String("serve", "", "daemon mode: listen on ADDR and build/stream snapshot parts for remote coordinators (requires -snapshot as the scratch store)")
	addrFile := flag.String("addr-file", "", "serve: write the bound listen address to this file (useful with :0 ephemeral ports)")
	serveDelay := flag.Duration("serve-delay", 0, "serve: artificial delay per built user (widens chaos-smoke kill windows)")
	hosts := flag.String("hosts", "", "coordinated build: comma-separated daemon addresses to dispatch ranges to instead of building in-process")
	chunk := flag.Int("chunk", 0, "coordinate -hosts: part stream chunk size in bytes (0 = default)")
	flag.Parse()
	if *serve == "" && *out == "" && *snapDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	coordinate := *workers > 1 || *hosts != ""
	if (*shardRange != "" || coordinate || *serve != "") && *snapDir == "" {
		log.Fatalf("tracegen: -shard-range, -workers, -hosts and -serve need -snapshot")
	}
	if !coordinate {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ranges", "retries", "attempt-timeout", "hedge-after", "halt-after", "fault", "fault-seed", "chunk":
				log.Fatalf("tracegen: -%s needs a coordinated build (-workers N > 1 or -hosts)", f.Name)
			}
		})
	}

	// Ctrl-C / SIGTERM cancels in-flight builds cleanly: part writers
	// abort their temp files, nothing partial is ever sealed, and a
	// coordinated build resumes from its verified parts next run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serve != "" {
		runServe(ctx, *serve, *snapDir, *addrFile, *serveDelay)
		return
	}

	pop, err := trace.NewPopulation(trace.Config{
		Users:    *users,
		Weeks:    *weeks,
		Seed:     *seed,
		BinWidth: time.Duration(*binMinutes) * time.Minute,
	})
	if err != nil {
		if *shardRange != "" {
			workerExit(buildctl.ExitFatal, "%v", err)
		}
		log.Fatalf("tracegen: %v", err)
	}
	switch {
	case *shardRange != "":
		buildShardRangeCmd(ctx, pop, *snapDir, *shardRange, *shard)
		return
	case coordinate:
		coordinateBuild(ctx, pop, *snapDir, *shard, *hosts, *chunk, *faultSpec, buildctl.Options{
			Parallel: *workers, Ranges: *ranges, MaxAttempts: *retries,
			AttemptTimeout: *attemptTimeout, HedgeAfter: *hedgeAfter,
			Seed: *faultSeed, HaltAfter: *haltAfter, Logf: log.Printf,
		})
		return
	case *snapDir != "":
		writeSnapshot(ctx, pop, *snapDir, *shard)
	}
	if *out == "" {
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	start := time.Now()
	var totalRecords int64
	for _, u := range pop.Users {
		path := filepath.Join(*out, fmt.Sprintf("host-%03d.etr", u.ID))
		f, err := os.Create(path)
		if err != nil {
			log.Fatalf("tracegen: %v", err)
		}
		n, err := u.WriteTrace(f, 0, u.Bins())
		if err != nil {
			log.Fatalf("tracegen: writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("tracegen: closing %s: %v", path, err)
		}
		totalRecords += n
		fmt.Printf("%s: %d packets (%s heavy=%v)\n", path, n, u.Addr, u.Heavy)
		if *pcap {
			ppath := filepath.Join(*out, fmt.Sprintf("host-%03d.pcap", u.ID))
			pf, err := os.Create(ppath)
			if err != nil {
				log.Fatalf("tracegen: %v", err)
			}
			pw, err := netsim.NewPcapWriter(pf, 0)
			if err != nil {
				log.Fatalf("tracegen: %v", err)
			}
			var perr error
			for b := 0; b < u.Bins() && perr == nil; b++ {
				u.EmitBin(b, func(rec netsim.Record) {
					if perr == nil {
						perr = pw.Write(rec)
					}
				})
			}
			if perr != nil {
				log.Fatalf("tracegen: pcap %s: %v", ppath, perr)
			}
			if err := pw.Flush(); err != nil {
				log.Fatalf("tracegen: %v", err)
			}
			if err := pf.Close(); err != nil {
				log.Fatalf("tracegen: %v", err)
			}
			fmt.Printf("%s: %d packets (pcap)\n", ppath, pw.Count())
		}
	}
	fmt.Printf("wrote %d packets for %d users in %v\n",
		totalRecords, *users, time.Since(start).Round(time.Millisecond))
}

// writeSnapshot materializes the population's feature workspace into
// the content-addressed store, shard by shard, unless a valid
// snapshot for these parameters already exists.
func writeSnapshot(ctx context.Context, pop *trace.Population, dir string, shard int) {
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		log.Fatalf("tracegen: snapshot key: %v", err)
	}
	start := time.Now()
	ws, warm, err := analysis.LoadOrMaterialize(ctx, dir, key, shard,
		func(stage string, werr error) {
			log.Printf("tracegen: snapshot %s fallback: %v", stage, werr)
		},
		func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		})
	if err != nil {
		log.Fatalf("tracegen: materializing snapshot: %v", err)
	}
	ws.Close()
	if warm {
		fmt.Printf("%s: warm (mapped in %v), generation skipped\n",
			key.Path(dir), time.Since(start).Round(time.Millisecond))
		return
	}
	fmt.Printf("%s: materialized %d users in %v\n",
		key.Path(dir), pop.Cfg.Users, time.Since(start).Round(time.Millisecond))
}

// workerExit is the worker-protocol error path: message on stderr,
// classified exit code (buildctl.ExitRetryable for transient build
// failures, buildctl.ExitFatal for invalid key/range/config a retry
// cannot fix).
func workerExit(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(code)
}

// buildShardRangeCmd is the distributed-build worker: it seals users
// lo:hi of the population as an independently checksummed part file
// next to where the final snapshot will live, then reports the sealed
// range as one machine-readable JSON line on stdout — the protocol
// buildctl.ExecWorker consumes.
func buildShardRangeCmd(ctx context.Context, pop *trace.Population, dir, rng string, shard int) {
	var lo, hi int
	if n, err := fmt.Sscanf(rng, "%d:%d", &lo, &hi); n != 2 || err != nil {
		workerExit(buildctl.ExitFatal, "-shard-range wants lo:hi, got %q", rng)
	}
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		workerExit(buildctl.ExitFatal, "snapshot key: %v", err)
	}
	if lo < 0 || hi <= lo || hi > key.Users {
		workerExit(buildctl.ExitFatal, "range [%d, %d) invalid for %d users", lo, hi, key.Users)
	}
	start := time.Now()
	if err := analysis.BuildShardRange(ctx, dir, key, lo, hi, shard, func(u int, rows [][features.NumFeatures]float64) {
		pop.Users[u].FillSeries(rows)
	}); err != nil {
		workerExit(buildctl.ExitRetryable, "building shard range: %v", err)
	}
	info, err := snapshot.VerifyPart(dir, key, lo, hi)
	if err != nil {
		workerExit(buildctl.ExitRetryable, "sealed part failed verification: %v", err)
	}
	res, err := json.Marshal(buildctl.RangeResult{
		Lo: lo, Hi: hi, Bytes: info.Bytes,
		CRC:       fmt.Sprintf("%08x", info.CRC),
		ElapsedMS: time.Since(start).Milliseconds(),
	})
	if err != nil {
		workerExit(buildctl.ExitRetryable, "encoding result: %v", err)
	}
	fmt.Println(string(res))
	fmt.Fprintf(os.Stderr, "%s: sealed part for users [%d, %d) in %v\n",
		info.Path, lo, hi, time.Since(start).Round(time.Millisecond))
}

// runServe is daemon mode: serve remote build sessions until the
// process is signalled. The -snapshot directory is the scratch store;
// parts sealed there double as the resume cache for reconnecting
// coordinators.
func runServe(ctx context.Context, addr, dir, addrFile string, delay time.Duration) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatalf("tracegen: %v", err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("tracegen: serve: %v", err)
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(l.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatalf("tracegen: serve: %v", err)
		}
	}
	d := &remotework.Daemon{Dir: dir, BuildDelay: delay, Logf: log.Printf}
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	log.Printf("tracegen: serving remote builds on %s (scratch %s)", l.Addr(), dir)
	err = d.Serve(l)
	if ctx.Err() != nil {
		return
	}
	log.Fatalf("tracegen: serve: %v", err)
}

// remotePool wires the -hosts list into a remotework.Pool worker.
func remotePool(pop *trace.Population, dir string, key snapshot.Key, hosts string, chunk int, seed uint64) *remotework.Pool {
	var hs []remotework.Host
	for _, a := range strings.Split(hosts, ",") {
		addr := strings.TrimSpace(a)
		if addr == "" {
			continue
		}
		hs = append(hs, remotework.Host{Name: addr, Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}})
	}
	if len(hs) == 0 {
		log.Fatalf("tracegen: -hosts %q names no hosts", hosts)
	}
	return &remotework.Pool{
		Dir: dir, Key: key, Cfg: pop.Cfg, Hosts: hs,
		ChunkBytes: chunk, Seed: seed,
		BaseWeights: pop.CostWeights(), Logf: log.Printf,
	}
}

// parseFaultPlan decodes the -fault spec: comma-separated key=value
// pairs over crash/hang/slow/corrupt probabilities, an attempt limit,
// and the injected slowdown in milliseconds.
func parseFaultPlan(spec string, seed uint64) (buildctl.FaultPlan, error) {
	plan := buildctl.FaultPlan{Seed: seed, Limit: 2}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return plan, fmt.Errorf("fault spec term %q is not key=value", kv)
		}
		switch k {
		case "crash", "hang", "slow", "corrupt":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return plan, fmt.Errorf("fault probability %q=%q out of [0, 1]", k, v)
			}
			switch k {
			case "crash":
				plan.Crash = f
			case "hang":
				plan.Hang = f
			case "slow":
				plan.Slow = f
			case "corrupt":
				plan.Corrupt = f
			}
		case "limit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return plan, fmt.Errorf("fault limit %q invalid", v)
			}
			plan.Limit = n
		case "slowms":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return plan, fmt.Errorf("fault slowms %q invalid", v)
			}
			plan.SlowDelay = time.Duration(n) * time.Millisecond
		default:
			return plan, fmt.Errorf("unknown fault key %q", k)
		}
	}
	return plan, nil
}

// coordinateBuild drives the snapshot to sealed via the buildctl
// coordinator: resumable, retrying, hedging — and optionally under an
// injected chaos plan, which is how the build-chaos smoke proves the
// whole control plane converges to the clean build's exact bytes.
func coordinateBuild(ctx context.Context, pop *trace.Population, dir string, shard int, hosts string, chunk int, faultSpec string, opts buildctl.Options) {
	key, err := snapshot.KeyFor(pop.Cfg)
	if err != nil {
		log.Fatalf("tracegen: snapshot key: %v", err)
	}
	opts.Dir, opts.Key, opts.Weights = dir, key, pop.CostWeights()
	opts.Worker = &buildctl.LocalWorker{
		Dir: dir, Key: key, ShardUsers: shard,
		Generate: func(u int, rows [][features.NumFeatures]float64) {
			pop.Users[u].FillSeries(rows)
		},
	}
	var pool *remotework.Pool
	if hosts != "" {
		pool = remotePool(pop, dir, key, hosts, chunk, opts.Seed)
		opts.Worker = pool
		// Observed per-host throughput steers the coordinator's
		// re-cuts toward the users that actually cost the most.
		opts.WeightsFn = pool.WeightsFn
	}
	if faultSpec != "" {
		plan, err := parseFaultPlan(faultSpec, opts.Seed)
		if err != nil {
			log.Fatalf("tracegen: -fault: %v", err)
		}
		opts.Worker = &buildctl.FaultyWorker{Inner: opts.Worker, Plan: plan, Dir: dir, Key: key}
	}
	summary := func() {
		if pool == nil {
			return
		}
		js, err := json.Marshal(pool.Summary())
		if err != nil {
			log.Printf("tracegen: encoding transport summary: %v", err)
			return
		}
		fmt.Println(string(js))
	}
	start := time.Now()
	st, err := buildctl.Build(ctx, opts)
	switch {
	case errors.Is(err, buildctl.ErrHalted):
		summary()
		fmt.Printf("%s: halted after %d newly sealed parts (attempts=%d failures=%d); rerun to resume\n",
			key.Path(dir), st.SealedParts, st.Attempts, st.Failures)
		return
	case err != nil:
		summary()
		log.Fatalf("tracegen: coordinated build: %v", err)
	case st.Warm:
		fmt.Printf("%s: warm, nothing to coordinate\n", key.Path(dir))
		return
	}
	summary()
	fmt.Printf("%s: coordinated build merged %d parts (attempts=%d failures=%d hedges=%d recuts=%d resumed=%d quarantined=%d rebuilt=%d users) in %v\n",
		key.Path(dir), st.MergedParts, st.Attempts, st.Failures, st.Hedges,
		st.Recuts, st.ResumedParts, st.QuarantinedParts, st.RebuiltUsers,
		time.Since(start).Round(time.Millisecond))
}

// runGC is the "tracegen gc" subcommand: retention for a snapshot
// store directory.
func runGC(args []string) {
	fs := flag.NewFlagSet("tracegen gc", flag.ExitOnError)
	dir := fs.String("snapshot", "", "snapshot store directory (required)")
	keep := fs.Int("keep", 0, "keep at most N newest sealed snapshots (0 = no count cap)")
	maxBytes := fs.Int64("max-bytes", 0, "total byte budget for kept snapshots (0 = no byte cap)")
	partAge := fs.Duration("part-age", 0, "age after which parts and *.bad corpses of abandoned builds are removed (0 = 24h default)")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without removing it")
	fs.Parse(args)
	if *dir == "" {
		fs.Usage()
		os.Exit(2)
	}
	st, err := snapshot.GC(*dir, snapshot.GCOptions{
		KeepLatest: *keep, MaxBytes: *maxBytes, PartMaxAge: *partAge, DryRun: *dryRun,
	})
	if err != nil {
		log.Fatalf("tracegen: gc: %v", err)
	}
	verb := "removed"
	if *dryRun {
		verb = "would remove"
	}
	fmt.Printf("%s: kept %d snapshots, %s %d files (%d bytes)\n",
		*dir, st.Kept, verb, st.Removed, st.FreedBytes)
}
