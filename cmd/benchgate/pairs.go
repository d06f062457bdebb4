package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runPairs runs n untraced pairs of each named workload (every workload of
// the change's contract when none is named) and prints the time report.
// Pair i runs the parent first when i is even and the change first when it
// is odd, so a drift that favours the first or second run of a pair hits
// both sides equally.
func runPairs(base string, n int, workloads []string) error {
	c, err := loadContract(".")
	if err != nil {
		return err
	}
	pc, err := loadContract(base)
	if err != nil {
		return fmt.Errorf("parent: %w", err)
	}
	if len(workloads) == 0 {
		for _, wl := range c.Workloads {
			workloads = append(workloads, wl.Name)
		}
	}
	seconds := c.RunSeconds
	if seconds <= 0 {
		return fmt.Errorf("BENCHMARK.json: run_seconds is %d", seconds)
	}
	fmt.Printf("## Benchmark pairs: times reported (seed %d, %ds untraced runs, %d pairs, run order alternating)\n\n", seed, seconds, n)
	for _, wl := range workloads {
		if !c.lists(wl) || !pc.lists(wl) {
			return fmt.Errorf("workload %q is not in both contracts", wl)
		}
		parent, head := make([]*run, n), make([]*run, n)
		for i := 0; i < n; i++ {
			parentFirst := i%2 == 0
			for _, parentTurn := range []bool{parentFirst, !parentFirst} {
				if parentTurn {
					parent[i], err = runBenchmark(base, pc.Command, wl, seconds, false)
				} else {
					head[i], err = runBenchmark(".", c.Command, wl, seconds, false)
				}
				if err != nil {
					return err
				}
			}
		}
		reportPairs(os.Stdout, c, wl, parent, head)
	}
	return nil
}

// pairRow is one time metric summarized over the pairs.
type pairRow struct {
	name, unit   string
	parent, head [3]float64 // first quartile, median, third quartile
	ratio        [3]float64 // the same of change/parent
	wins, ties   int
	n            int
	p            float64 // exact two-sided sign test
}

// summarizePairs reduces each end-to-end time metric, the ones the gate
// leaves ungated, over pairs parent[i], head[i]. A pair the change wins is
// one where it is better in the metric's direction; tied pairs carry no
// sign and drop out of the test.
func summarizePairs(specs []metricSpec, parent, head []*run) []pairRow {
	var rows []pairRow
	for _, m := range specs {
		if _, g := gated(m, false); g {
			continue
		}
		r := pairRow{name: m.Name, unit: m.Unit, n: len(parent)}
		var pv, hv, ratios []float64
		for i := range parent {
			p, h := parent[i].Metrics[m.Name].Value, head[i].Metrics[m.Name].Value
			pv, hv = append(pv, p), append(hv, h)
			if p != 0 {
				ratios = append(ratios, h/p)
			}
			switch w := worseBy(m.Better, p, h); {
			case w < 0:
				r.wins++
			case w == 0:
				r.ties++
			}
		}
		r.parent, r.head, r.ratio = quartiles(pv), quartiles(hv), quartiles(ratios)
		r.p = signTestP(r.wins, r.n-r.ties)
		rows = append(rows, r)
	}
	return rows
}

// reportPairs writes one workload's pairs table, and whether every run of
// both sides detected the same reference stream.
func reportPairs(w io.Writer, c *contract, workload string, parent, head []*run) {
	fmt.Fprintf(w, "### %s\n\nMedians with quartiles in brackets.\n\n| metric | unit | parent | change | change won | change/parent | sign-test p |\n|---|---|---|---|---|---|---|\n", workload)
	for _, r := range summarizePairs(c.EndToEnd, parent, head) {
		fmt.Fprintf(w, "| `%s` | %s | %s [%s–%s] | %s [%s–%s] | %d/%d | %.3f [%.3f–%.3f] | %.4g |\n", r.name, r.unit,
			num(r.parent[1]), num(r.parent[0]), num(r.parent[2]), num(r.head[1]), num(r.head[0]), num(r.head[2]),
			r.wins, r.n, r.ratio[1], r.ratio[0], r.ratio[2], r.p)
	}
	verdict, failed := "identical in every run", uint64(0)
	for i := range parent {
		if parent[i].digest == "" || head[i].digest != parent[0].digest || parent[i].digest != parent[0].digest {
			verdict = "**DIFFERENT**"
		}
		failed += head[i].Failed
	}
	fmt.Fprintf(w, "\nReference detections: %s. Oracle failed in the change's runs: %d.\n\n", verdict, failed)
}

// signTestP is the exact two-sided sign-test p-value of k successes in n
// fair coin flips: twice the smaller binomial tail, capped at 1.
func signTestP(k, n int) float64 {
	if n == 0 {
		return 1
	}
	k = min(k, n-k)
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Exp2(float64(n)))
}

// quartiles are the first quartile, the median and the third quartile.
func quartiles(vs []float64) [3]float64 {
	return [3]float64{quantile(vs, 0.25), quantile(vs, 0.5), quantile(vs, 0.75)}
}

// quantile is the q-quantile of vs by linear interpolation between order
// statistics; NaN for no values.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
