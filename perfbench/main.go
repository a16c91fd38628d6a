// Command perfbench is the repository's end-to-end benchmark: a cold
// snapshot build, the ten paper runners over a warm store (whole-heap
// and streaming), and a 350-host fleet replay, plus a traced run that
// splits the same pipeline into per-layer stages. See README.md.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a
// report stamped with the host, the seed and the workload sizes.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one invocation; a child still running then is killed
// and the run reported as failed.
const runLimit = 170 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "workload: cold-build, figures-warm, figures-stream or fleet")
	seed := flag.Uint64("seed", 1, "population seed of the workload")
	seconds := flag.Int("seconds", 10, "how long the timed phase lasts")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer pipeline instead of the untraced workload")
	root := flag.String("root", ".", "repository root (holds testdata/ and BENCHMARK.json)")
	child := flag.String("child", "", "internal: run one section in this process")
	dir := flag.String("dir", "", "internal: scratch directory of the child")
	flag.Parse()

	// The benchmark sets every store and streaming option itself.
	os.Unsetenv("REPRO_SNAPSHOT_DIR")
	os.Unsetenv("REPRO_STREAM_SHARD")

	if *child != "" {
		os.Exit(runChild(*child, *seed, *seconds, *traceFlag == 1, *root, *dir))
	}
	if _, ok := findWorkload(*workloadName); !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of cold-build, figures-warm, figures-stream, fleet; --seconds >= 1; --trace 0 or 1\n")
		os.Exit(2)
	}
	declared, err := declaredMetrics(*root, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	os.Exit(parent(*workloadName, *seed, *seconds, *traceFlag == 1, *root, declared))
}

// declaredMetrics reads the metric names BENCHMARK.json declares for
// this kind of run.
func declaredMetrics(root string, traced bool) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

// childOutcome is what the parent learns from one child process.
type childOutcome struct {
	attempted, failed int
	correct           bool
	errors            []string
	metrics           map[string]float64
	samples           map[string]int
	population        population
}

// population records which population a section ran on.
type population struct {
	Seed    uint64 `json:"seed"`
	Skipped int    `json:"skipped_candidates"`
}

// spawn runs one section in a child process, so that each section has
// its own peak RSS and a panic on any goroutine fails the section
// instead of the harness.
func spawn(ctx context.Context, section string, seed uint64, seconds int, traced bool, root, dir string) childOutcome {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, os.Args[0], "-child", section, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", tr, "-root", root, "-dir", dir)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	// A child must not outlive the harness, however the harness ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out := childOutcome{metrics: map[string]float64{}, samples: map[string]int{}}
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		out.attempted, out.failed = 1, 1
		out.errors = []string{fmt.Sprintf("%s: starting child: %v", section, err)}
		return out
	}
	var result *e2eResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "progress ok":
			out.attempted++
		case line == "progress fail":
			out.attempted++
			out.failed++
		case strings.HasPrefix(line, "result "):
			result = new(e2eResult)
			if err := json.Unmarshal([]byte(line[len("result "):]), result); err != nil {
				result = nil
			}
		}
	}
	werr := cmd.Wait()
	if werr != nil || result == nil {
		// The child died before reporting: everything it finished
		// counts, and the operation in flight counts as failed.
		out.attempted++
		out.failed++
		out.errors = append(out.errors, fmt.Sprintf("%s: child failed: %v", section, werr))
		return out
	}
	out.attempted, out.failed = result.Attempted, result.Failed
	out.correct = result.Correct
	out.errors = result.Errors
	out.metrics = result.Metrics
	out.samples = result.Samples
	out.population = population{result.PopulationSeed, result.Skipped}
	return out
}

// report is the stamped line printed before the result line.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	Seconds  int    `json:"seconds"`
	Host     host   `json:"host"`
	Sizes    sizes  `json:"sizes"`
	// Populations maps each section to its population (see
	// populationSeed).
	Populations map[string]population    `json:"populations"`
	Metrics     map[string]reportedValue `json:"metrics"`
	Errors      []string                 `json:"errors,omitempty"`
}

type reportedValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

func parent(name string, seed uint64, seconds int, traced bool, root string, declared map[string]string) int {
	out := filepath.Join(root, ".bench_build")
	err := os.MkdirAll(out, 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(out, "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	rep := report{Workload: name, Seed: seed, Traced: traced, Seconds: seconds,
		Host: describeHost(), Sizes: workloadSizes,
		Populations: map[string]population{}, Metrics: map[string]reportedValue{}}
	var total childOutcome
	total.correct = true
	var sections []string
	if traced {
		for _, w := range workloads {
			sections = append(sections, w.name)
		}
	} else {
		sections = []string{name}
	}
	for _, s := range sections {
		o := spawn(ctx, s, seed, seconds, traced, root, dir)
		total.attempted += o.attempted
		total.failed += o.failed
		total.correct = total.correct && o.correct
		total.errors = append(total.errors, o.errors...)
		rep.Populations[s] = o.population
		for k, v := range o.metrics {
			rep.Metrics[k] = reportedValue{Value: v, Unit: unitOf(k), Samples: o.samples[k]}
		}
	}
	if total.failed > 0 || total.attempted == 0 {
		total.correct = false
	}
	if total.attempted == 0 {
		total.attempted = 1
		total.failed = 1
	}
	rep.Errors = total.errors

	metrics := map[string]metric{}
	for k, v := range rep.Metrics {
		if e2eName, ok := e2eAlias[k]; ok && !traced {
			metrics[e2eName] = metric{v.Value, v.Unit}
		}
		if _, ok := declared[k]; ok {
			metrics[k] = metric{v.Value, v.Unit}
		}
	}
	if total.correct {
		// Every declared metric must be measured, with the declared unit.
		var missing []string
		for k, u := range declared {
			if m, ok := metrics[k]; !ok || m.Unit != u {
				missing = append(missing, k)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			total.correct = false
			rep.Errors = append(rep.Errors, fmt.Sprintf("metrics missing or with another unit than BENCHMARK.json declares: %v", missing))
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
	}
	if b, err := json.Marshal(map[string]report{"report": rep}); err == nil {
		fmt.Println(string(b))
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{total.correct, total.attempted, total.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !total.correct {
		return 1
	}
	return 0
}

// e2eAlias maps each workload's own iteration metric to the
// workload-independent iter_s the result line carries.
var e2eAlias = map[string]string{
	"build_s":   "iter_s",
	"figures_s": "iter_s",
	"fleet_s":   "iter_s",
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s_"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "bytes"):
		return "B"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_share") || strings.HasSuffix(name, "_skew"):
		return "ratio"
	default:
		return "count"
	}
}

// runChild runs one section in this process and prints its result.
func runChild(section string, seed uint64, seconds int, traced bool, root, dir string) int {
	w, ok := findWorkload(section)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown section %q\n", section)
		return 2
	}
	progress := func(ok bool) {
		if ok {
			fmt.Println("progress ok")
		} else {
			fmt.Println("progress fail")
		}
	}
	sub := filepath.Join(dir, section)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	pseed, skipped, err := populationSeed(seed, w.users)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var res e2eResult
	if traced {
		res = runTraced(section, pseed, seconds, root, dir, progress)
	} else {
		res = runWorkload(w, pseed, seconds, root, sub, progress)
	}
	res.PopulationSeed, res.Skipped = pseed, skipped
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println("result " + string(b))
	return 0
}
