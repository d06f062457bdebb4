// Command benchmark is this repository's benchmark: six workloads over the
// path an observation really takes (LLRP → pipeline → wire → shard →
// detect → rules → SQL → store), end-to-end metrics with regression
// bounds, and per-layer metrics taken from outside the layers in a
// separate traced run. BENCHMARK.json at the repository root is the
// contract; README.md beside this file is the metric dictionary.
//
// The driver's form, one workload per process, result as the last line:
//
//	bash benchmark/run.sh --workload actions --seed 1 --seconds 8 --trace 0
//
// For people: every workload, untraced then traced, as a table:
//
//	go run ./benchmark -seed 1 -trace 1
//
// and the repeatability check (N sets of ten child processes per workload):
//
//	go run ./benchmark -sets 2
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef names one metric; the lists below must equal BENCHMARK.json's
// (bench_test.go checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_eps", "1/s"},
	{"latency_p50_us", "us"},
	{"allocs_per_event", "allocs/ev"},
	{"retained_heap_mb", "MB"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

// result is the driver's result line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

const (
	setupRepeats = 5 // set-ups per run; setup_s is their median
	minPasses    = 5 // timed passes of a closed-loop run, at least
	traceDir     = "benchmark/out"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, as a table)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 8, "length of the timed section")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		sets    = flag.Int("sets", 0, "repeatability mode: run this many sets and compare their medians")
		out     = flag.String("out", "", "with -sets: write the sets as JSON to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// The whole benchmark is sized for a small shared box: never more
	// than four cores, whatever the host has.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	var err error
	switch {
	case *sets > 0:
		err = runSets(*sets, *seed, *seconds, *out)
	case *name == "":
		err = runAll(*seed, *seconds, *trace != 0)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("run is not correct (see the result line)")

// runOne runs one workload and prints the driver's result line last.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		res, err := measure(w, seed, seconds, traced, 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return errIncorrect
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}

// runAll runs every workload in this process and prints every metric by
// name with its unit.
func runAll(seed int64, seconds float64, traced bool) error {
	ok := true
	for _, w := range workloads {
		modes := []bool{false}
		if traced {
			modes = append(modes, true)
		}
		for _, tr := range modes {
			res, err := measure(w, seed, seconds, tr, 1)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			defs := endToEnd
			if tr {
				defs = perLayer
			}
			fmt.Printf("%s  correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
			for _, d := range defs {
				fmt.Printf("  %-34s %16.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
			}
			ok = ok && res.Correct
		}
	}
	if !ok {
		return errIncorrect
	}
	return nil
}

// measure sets the workload up and runs it: untraced for the end-to-end
// metrics, or traced for the per-layer ones. div scales the streams down
// for the package's tests.
func measure(w workload, seed int64, seconds float64, traced bool, div int) (*result, error) {
	var r runner
	var setups []float64
	for len(setups) < setupRepeats {
		r = nil
		runtime.GC()
		// The collector is off while a set-up is timed. A set-up allocates
		// about 120 MB from an empty heap in 0.1–1 s; the handful of
		// collections that would run took 40% of it and fell one of two
		// ways per process (the set-ups of one process agreed, processes
		// differed by 30%). Generating inputs is CPU work, which this
		// still times; collecting the generator's garbage is not something
		// a change can hide work in.
		gc := debug.SetGCPercent(-1)
		t := time.Now()
		var err error
		r, err = w.setup(seed, div, seconds)
		took := time.Since(t).Seconds()
		debug.SetGCPercent(gc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took)
		if traced {
			break // setup_s is an end-to-end metric
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d reference detections %s\n", w.name, seed, r.want())
	if err := r.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if traced {
		return measureLayers(w, r)
	}

	res := &result{Metrics: metrics{}}
	var eps, p50, allocs, retained []float64
	var gen pathStats
	start := time.Now()
	for n := 0; n == 0 || !r.once() && (n < minPasses || time.Since(start).Seconds() < seconds); n++ {
		p, err := r.pass(nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n+1, err)
		}
		if d := p.det.diff(r.want()); d != 0 {
			fmt.Fprintf(os.Stderr, "%s pass %d: detections %s differ from reference %s\n", w.name, n+1, p.det, r.want())
		}
		eps = append(eps, float64(p.obs)/p.m.wall.Seconds())
		p50 = append(p50, percentile(p.lat, 0.50))
		allocs = append(allocs, float64(p.m.allocs)/float64(p.obs))
		retained = append(retained, p.m.retained)
		res.Attempted += p.attempted
		res.Failed += p.failed
		gen = p.path
	}
	res.Correct = res.Failed == 0
	if why := gen.suspect(); r.once() && why != "" {
		fmt.Fprintf(os.Stderr, "%s: WARNING: latencies of this run describe the generator or the host, not the system: %s\n", w.name, why)
	}
	fmt.Fprintf(os.Stderr, "%s: %d set-up(s) min %.4f median %.4f max %.4f s; %d pass(es); throughput min %.0f median %.0f max %.0f eps; latency p50 min %.1f median %.1f max %.1f us\n",
		w.name, len(setups), minOf(setups), median(setups), maxOf(setups),
		len(eps), minOf(eps), median(eps), maxOf(eps), minOf(p50), median(p50), maxOf(p50))
	// Every metric reports the median repeat: a change that adds an
	// occasional slow pass must be able to show. How many passes fit
	// follows -seconds; a median gains nothing from more draws.
	values := map[string]float64{
		"setup_s":          median(setups),
		"throughput_eps":   median(eps),
		"latency_p50_us":   median(p50),
		"allocs_per_event": median(allocs),
		"retained_heap_mb": median(retained),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return res, nil
}

// suspect says why a paced run's latencies describe the generator or a
// stalled host instead of the system, or "" when they do not. It is a
// warning, not a failure: on a shared box a single 100 ms stall of the
// whole process trips it, and a benchmark that fails on its host's
// hiccups cannot gate anything. gen.late_p99_us and gen.backlog_end carry
// the same facts in the traced run.
func (g pathStats) suspect() string {
	switch {
	case g.lateP99 > maxLateP99:
		return fmt.Sprintf("generator ran %.0f us late at p99 (limit %.0f)", g.lateP99, maxLateP99)
	case g.backlogGrow > maxBacklogUp:
		return fmt.Sprintf("backlog grew by %.1f frames over the last quarter (limit %.0f)", g.backlogGrow, maxBacklogUp)
	}
	return ""
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}
