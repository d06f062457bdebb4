package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Repeatability mode: the check the driver makes before it accepts the
// benchmark, runnable by hand. Each set runs every workload runsPerSet times,
// each run a child process of this binary with another seed; a metric's
// spread is the distance between the first and third quartile of its runs
// as a share of their median. Two sets of the same code must agree within
// the metric's bound, or the bound (or the metric) is wrong.

// runsPerSet is the driver's: it takes quartiles over ten runs.
const runsPerSet = 10

// contract is the part of BENCHMARK.json this mode reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setCell is one metric of one workload in one set.
type setCell struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (Q3 − Q1) / median
}

// setsReport is what -out writes (results/reference.json).
type setsReport struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"` // HEAD the runs were made on
	Seconds    float64 `json:"run_seconds"`
	Runs       int     `json:"runs_per_set"`
	Seed       int64   `json:"first_seed"`
	// Sets[i][workload][metric]
	Sets  []map[string]map[string]*setCell `json:"sets"`
	Claim any                              `json:"claim"` // null: this benchmark claims no gain
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// computes them (the "exclusive" method), which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(3)
}

func runSets(sets int, seed int64, seconds float64, outPath string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := &setsReport{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", Seconds: seconds, Runs: runsPerSet, Seed: seed,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rep.Commit = strings.TrimSpace(string(out))
	}
	for s := 0; s < sets; s++ {
		set := map[string]map[string]*setCell{}
		for _, w := range workloads {
			cells := map[string]*setCell{}
			for r := 0; r < runsPerSet; r++ {
				runSeed := seed + int64(s*runsPerSet+r)
				res, err := child(exe, w.name, runSeed, seconds)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", s+1, w.name, runSeed, err)
				}
				if !res.Correct {
					return fmt.Errorf("set %d %s seed %d: not correct (%d of %d failed)", s+1, w.name, runSeed, res.Failed, res.Attempted)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d:", s+1, w.name, runSeed)
				for _, m := range c.EndToEnd {
					if cells[m.Name] == nil {
						cells[m.Name] = &setCell{}
					}
					cells[m.Name].Values = append(cells[m.Name].Values, res.Metrics[m.Name].Value)
					fmt.Fprintf(os.Stderr, " %s=%.4g", m.Name, res.Metrics[m.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
			for _, cell := range cells {
				q1, q3 := quartiles(cell.Values)
				cell.Median = median(append([]float64(nil), cell.Values...))
				cell.Spread = (q3 - q1) / cell.Median
			}
			set[w.name] = cells
		}
		rep.Sets = append(rep.Sets, set)
	}

	ok := true
	fmt.Printf("%-20s %-18s %14s %8s", "workload", "metric", "median[1]", "spread")
	for s := 1; s < sets; s++ {
		fmt.Printf(" %14s %8s %8s", fmt.Sprintf("median[%d]", s+1), "spread", "worse")
	}
	fmt.Printf(" %6s\n", "bound")
	for _, w := range workloads {
		for _, m := range c.EndToEnd {
			first := rep.Sets[0][w.name][m.Name]
			flag := ""
			if first.Spread > m.Bound {
				flag = " SPREAD"
			}
			fmt.Printf("%-20s %-18s %14.4f %8.4f", w.name, m.Name, first.Median, first.Spread)
			for s := 1; s < sets; s++ {
				cell := rep.Sets[s][w.name][m.Name]
				// worse is how far this set's median moved in the bad
				// direction, as a share of the first set's median.
				worse := (cell.Median - first.Median) / first.Median
				if m.Better == "higher" {
					worse = -worse
				}
				if worse > m.Bound {
					flag += " MEDIAN"
				}
				if cell.Spread > m.Bound {
					flag += " SPREAD"
				}
				fmt.Printf(" %14.4f %8.4f %+8.4f", cell.Median, cell.Spread, worse)
			}
			fmt.Printf(" %6.2f%s\n", m.Bound, flag)
			ok = ok && flag == ""
		}
	}
	if outPath != "" {
		buf, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a metric moved or spread beyond its bound between sets of the same code")
	}
	return nil
}

// child runs one workload in a fresh process, as the driver does, and
// parses the result line.
func child(exe, name string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
