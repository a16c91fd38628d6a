package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one reading of the counters a span differences: wall
// clock, the process's user+sys CPU, its cumulative heap bytes
// allocated and the machine's host steal ticks.
type sample struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	steal int64
}

var allocMetric = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func now() sample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	steal, err := hostStealTicks()
	if err != nil {
		panic(err)
	}
	metrics.Read(allocMetric)
	return sample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocMetric[0].Value.Uint64(),
		steal: steal,
	}
}

// span is the cost of one timed call.
type span struct {
	wall, cpu float64 // seconds
	allocMB   float64
	// rssMB is the process's peak RSS during the call.
	rssMB float64
	// stolen is the CPU time the host took from the machine during the
	// call, in seconds summed over CPUs.
	stolen float64
}

func since(s sample) span {
	e := now()
	return span{
		wall:    e.wall.Sub(s.wall).Seconds(),
		cpu:     (e.cpu - s.cpu).Seconds(),
		allocMB: float64(e.alloc-s.alloc) / 1e6,
		stolen:  float64(e.steal-s.steal) / 100,
	}
}

// unstolenWall is the wall time of the call with the host's steal
// taken out: the wall time scaled by the share of the machine's busy
// CPU time that went to the call, cpu / (cpu + stolen). A virtual
// machine's CPUs are stolen only while they have work, so this is exact
// for a call that runs on one CPU and for one that keeps every CPU
// equally busy, and leaves the wall time as it is on a machine the host
// leaves alone.
func (s span) unstolenWall() float64 {
	if s.stolen <= 0 || s.cpu <= 0 {
		return s.wall
	}
	return s.wall * s.cpu / (s.cpu + s.stolen)
}

// timed runs fn and returns its cost. An error from fn, or from
// reading the peak RSS, is returned with it.
func timed(fn func() error) (span, error) {
	if err := resetPeakRSS(); err != nil {
		return span{}, fmt.Errorf("resetting peak RSS: %w", err)
	}
	s := now()
	err := fn()
	sp := since(s)
	if err != nil {
		return sp, err
	}
	sp.rssMB, err = peakRSSMB()
	return sp, err
}

// add is the cost of a and b run one after the other.
func (a span) add(b span) span {
	return span{a.wall + b.wall, a.cpu + b.cpu, a.allocMB + b.allocMB, max(a.rssMB, b.rssMB), a.stolen + b.stolen}
}

// resetPeakRSS restarts the kernel's VmHWM accounting for this process
// so that peakRSSMB reports the high-water mark of what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostStealTicks reads the time the hypervisor has taken from this
// machine's CPUs, summed over CPUs: the steal column of /proc/stat, in
// the kernel's 100 Hz clock ticks. It stays 0 on bare metal.
func hostStealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing steal in %q: %w", line, err)
	}
	return ticks, nil
}

// median of xs (not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// host describes the machine and toolchain a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

func describeHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range bytes.Split(b, []byte("\n")) {
			if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
				h.CPU = string(bytes.TrimSpace(v))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}
