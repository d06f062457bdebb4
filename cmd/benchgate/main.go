// Command benchgate is the continuous-integration performance gate. It runs
// the repository benchmark (BENCHMARK.json at the repository root,
// benchmark/README.md) on two checkouts, the parent commit and the change,
// and compares them workload by workload. Each workload runs once per
// checkout untraced (end-to-end metrics) and once traced (per-layer
// metrics), parent and change alternating, at seed 1 (-seed picks another).
//
// The gate fails when
//
//   - a count metric is worse than the parent's by more than its bound:
//     allocs_per_event and retained_heap_mb (bounds from BENCHMARK.json),
//     wire.bytes_per_event and detect.*_per_event (layerBound). Counts
//     repeat within 0.5% for a seed, so one run of each side is enough;
//   - the benchmark's oracle marks a run of the change incorrect
//     (failed > 0);
//   - the reference detection digest differs from the parent's: the
//     change detects something else.
//
// Times (setup_s, throughput_eps, latency_p50_us) are printed beside the
// counts and never gated: identical code drifts 10–20% between runs on a
// shared host, more than any bound one pair of runs could hold. A
// time-based claim needs alternating pairs of the benchmark's own runs,
// which -pairs makes: N untraced pairs per workload at the contract's
// run_seconds, the side that runs first flipping each pair. For each time
// metric it reports the pairs the change won, the median change/parent
// ratio with its interquartile range, and an exact two-sided sign-test p.
// It is a report and fails only when a run does.
//
// Usage, from the change's checkout, with the parent unpacked elsewhere:
//
//	go run ./cmd/benchgate -base ../parent
//	go run ./cmd/benchgate -base ../parent -pairs 10 -workload detect_only
//	go run ./cmd/benchgate -base ../parent -pairs 10 -workload query_mix -seed 2
//
// The report is Markdown on stdout; the exit status is 1 on any failure.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// runSeconds is the timed section of each run. The counts do not depend on
// it: they are per observation, and every run makes at least five passes.
const runSeconds = 2

// layerBound is the bound of a gated per-layer count, which BENCHMARK.json
// leaves unbounded: the same share as the end-to-end counts.
const layerBound = 0.05

// contract is the part of BENCHMARK.json the gate reads.
type contract struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func (c *contract) lists(workload string) bool {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// gated reports whether the gate holds a metric to a bound, and the bound.
// Only counts are gated; detect.ns_per_event is a time.
func gated(m metricSpec, perLayer bool) (float64, bool) {
	switch {
	case perLayer && (m.Name == "wire.bytes_per_event" ||
		strings.HasPrefix(m.Name, "detect.") && strings.HasSuffix(m.Name, "_per_event") && m.Unit != "ns"):
		return layerBound, true
	case !perLayer && (m.Name == "allocs_per_event" || m.Name == "retained_heap_mb"):
		return m.Bound, true
	}
	return 0, false
}

// run is one benchmark process: its result line and the reference digest
// it printed on stderr.
type run struct {
	Correct bool              `json:"correct"`
	Failed  uint64            `json:"failed"`
	Metrics map[string]metric `json:"metrics"`
	digest  string
}

type metric struct {
	Value float64 `json:"value"`
}

var digestRE = regexp.MustCompile(`reference detections (\S+)`)

// seed is the benchmark seed both checkouts run at.
var seed = 1

// runBenchmark runs one workload in the checkout at dir with the command
// its BENCHMARK.json names. A run the oracle marks incorrect exits non-zero
// but still prints its result line; only a missing line is an error.
func runBenchmark(dir string, command []string, workload string, seconds int, traced bool) (*run, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	args := append(append([]string(nil), command[1:]...), "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", trace)
	cmd := exec.Command(command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = io.MultiWriter(os.Stderr, &stderr)
	exitErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	r := &run{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), r); err != nil {
		return nil, fmt.Errorf("%s %s (trace %s): no result line (%v, exit: %v)", dir, workload, trace, err, exitErr)
	}
	if m := digestRE.FindStringSubmatch(stderr.String()); m != nil {
		r.digest = m[1]
	}
	return r, nil
}

// row is one compared metric.
type row struct {
	name, unit   string
	parent, head float64
	worse        float64 // share by which the change is worse; negative is better
	bound        float64
	gated, fail  bool
}

// worseBy is the share by which head is worse than parent in the metric's
// direction. A zero parent makes any difference infinite.
func worseBy(better string, parent, head float64) float64 {
	d := head - parent
	if better == "higher" {
		d = -d
	}
	switch {
	case d == 0:
		return 0
	case parent == 0:
		return math.Inf(int(math.Copysign(1, d)))
	}
	return d / math.Abs(parent)
}

// compare lists the gated metrics of one pair of runs, failing each that
// is worse than its bound, and the end-to-end times, which it only
// reports.
func compare(specs []metricSpec, perLayer bool, parent, head *run) []row {
	var rows []row
	for _, m := range specs {
		bound, g := gated(m, perLayer)
		if !g && perLayer {
			continue
		}
		r := row{name: m.Name, unit: m.Unit, parent: parent.Metrics[m.Name].Value,
			head: head.Metrics[m.Name].Value, bound: bound, gated: g}
		r.worse = worseBy(m.Better, r.parent, r.head)
		r.fail = g && r.worse > bound
		rows = append(rows, r)
	}
	return rows
}

// judge compares one workload's runs, untraced and traced, writes its
// Markdown section to w and returns the failures.
func judge(w io.Writer, c *contract, workload string, parent, head [2]*run) []string {
	var fails []string
	fmt.Fprintf(w, "### %s\n\n| metric | unit | parent | change | worse by | bound | verdict |\n|---|---|---|---|---|---|---|\n", workload)
	for i, specs := range [2][]metricSpec{c.EndToEnd, c.PerLayer} {
		for _, r := range compare(specs, i == 1, parent[i], head[i]) {
			bound, verdict := "—", "reported"
			if r.gated {
				bound, verdict = fmt.Sprintf("%.0f%%", 100*r.bound), "ok"
			}
			if r.fail {
				verdict = "**FAIL**"
				fails = append(fails, fmt.Sprintf("%s: %s worse by %+.1f%% (bound %.0f%%)", workload, r.name, 100*r.worse, 100*r.bound))
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %s | %+.1f%% | %s | %s |\n", r.name, r.unit, num(r.parent), num(r.head), 100*r.worse, bound, verdict)
		}
	}
	for i, h := range head {
		if !h.Correct || h.Failed > 0 {
			fails = append(fails, fmt.Sprintf("%s (trace %d): oracle failed %d", workload, i, h.Failed))
		}
	}
	verdict := "identical"
	if parent[0].digest == "" || parent[0].digest != head[0].digest {
		verdict = "**DIFFERENT**"
		fails = append(fails, fmt.Sprintf("%s: reference detections %q, parent %q", workload, head[0].digest, parent[0].digest))
	}
	fmt.Fprintf(w, "\nReference detections: parent `%s`, change `%s`: %s. Oracle failed: %d untraced, %d traced.\n\n",
		parent[0].digest, head[0].digest, verdict, head[0].Failed, head[1].Failed)
	return fails
}

// num prints a value with four significant digits, but never in exponent
// form: throughputs run to six figures.
func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func loadContract(dir string) (*contract, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	c := &contract{}
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.Command) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: no command")
	}
	return c, nil
}

// names is a repeatable string flag.
type names []string

func (n *names) String() string     { return strings.Join(*n, ",") }
func (n *names) Set(v string) error { *n = append(*n, v); return nil }

func main() {
	base := flag.String("base", "", "checkout of the parent commit to compare against (required)")
	pairs := flag.Int("pairs", 0, "instead of gating, run this many alternating pairs and report the times")
	var workloads names
	flag.Var(&workloads, "workload", "with -pairs, a workload to run (repeatable; default all)")
	flag.IntVar(&seed, "seed", seed, "the benchmark seed of every run")
	flag.Parse()
	if *base == "" || flag.NArg() > 0 || *pairs < 0 || len(workloads) > 0 && *pairs == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *pairs > 0 {
		err = runPairs(*base, *pairs, workloads)
	} else {
		err = gate(*base)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// gate runs every workload of the change's contract on both checkouts and
// prints the report.
func gate(base string) error {
	c, err := loadContract(".")
	if err != nil {
		return err
	}
	pc, err := loadContract(base)
	if err != nil {
		return fmt.Errorf("parent: %w", err)
	}
	fmt.Printf("## Benchmark gate: counts gated, times reported (seed %d, %ds runs)\n\n", seed, runSeconds)
	var fails []string
	for _, wl := range c.Workloads {
		if !pc.lists(wl.Name) {
			fmt.Printf("### %s\n\nNew workload: the parent has nothing to compare it with.\n\n", wl.Name)
			continue
		}
		var parent, head [2]*run
		for i, traced := range []bool{false, true} {
			if parent[i], err = runBenchmark(base, pc.Command, wl.Name, runSeconds, traced); err != nil {
				return fmt.Errorf("parent: %w", err)
			}
			if head[i], err = runBenchmark(".", c.Command, wl.Name, runSeconds, traced); err != nil {
				return err
			}
		}
		fails = append(fails, judge(os.Stdout, c, wl.Name, parent, head)...)
	}
	if len(fails) > 0 {
		fmt.Printf("**%d failure(s):**\n\n- %s\n", len(fails), strings.Join(fails, "\n- "))
		return fmt.Errorf("%d failure(s)", len(fails))
	}
	fmt.Println("All gated counts within bound; every oracle passed; detection digests identical.")
	return nil
}
