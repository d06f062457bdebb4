// Command experiments regenerates the paper's figures and this
// repository's ablations (see DESIGN.md §4 for the experiment index).
// Performance claims come from the repository benchmark (BENCHMARK.json,
// benchmark/README.md), not from these tables.
//
// Usage:
//
//	experiments fig9 [-quick]     processing time vs #events and vs #rules (paper §5)
//	experiments ablation [-quick] sub-graph merging, ECA throughput, pipeline, shards
//	experiments graph             the paper's five rules as a Graphviz event graph
//	experiments all [-quick]      fig9 and ablation
//
// Figs. 4 and 8 are tests: TestFig4CorrectDetection,
// TestFig4BaselineIsIncorrect and TestFig8PseudoEventDetection.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rcep/internal/bench"
	"rcep/internal/core/graph"
	"rcep/internal/prof"
	"rcep/internal/rules"
	"rcep/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	quick := fs.Bool("quick", false, "smaller sweeps for fast runs")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file (docs/OPERATIONS.md)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	tracefile := fs.String("trace", "", "write a runtime execution trace to this file")
	_ = fs.Parse(os.Args[2:])

	stop, err := prof.Start(prof.Options{CPUProfile: *cpuprofile, MemProfile: *memprofile, Trace: *tracefile})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stop()

	switch cmd {
	case "fig9":
		fig9(*quick)
	case "ablation":
		ablation(*quick)
	case "graph":
		graphDot()
	case "all":
		fig9(*quick)
		ablation(*quick)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments fig9|ablation|graph|all [-quick] [-cpuprofile f] [-memprofile f] [-trace f]")
	os.Exit(2)
}

// graphDot prints the merged event graph for the paper's five rules in
// Graphviz dot form (pipe into `dot -Tsvg`).
func graphDot() {
	rs, err := rules.ParseScript(sim.RuleScript(1, sim.AllFamilies()))
	if err != nil {
		panic(err)
	}
	x := rules.NewExecutor(rs, nil, nil, nil)
	b := graph.NewBuilder()
	if err := x.Bind(b); err != nil {
		panic(err)
	}
	if err := graph.WriteDot(os.Stdout, b.Finalize()); err != nil {
		panic(err)
	}
}

// fig9 regenerates the paper's performance figure: total event processing
// time vs number of primitive events, and vs number of rules.
func fig9(quick bool) {
	fmt.Println("=== Fig 9: total event processing time (action cost excluded, as in the paper) ===")
	eventCounts := []int{50_000, 100_000, 150_000, 200_000, 250_000}
	ruleCounts := []int{100, 200, 300, 400, 500}
	fixedRules := 25
	fixedEvents := 50_000
	if quick {
		eventCounts = []int{5_000, 10_000, 20_000}
		ruleCounts = []int{10, 25, 50}
		fixedEvents = 10_000
	}
	s1, err := bench.SweepEvents(eventCounts, fixedRules, 1)
	if err != nil {
		panic(err)
	}
	s1.PrintTable(os.Stdout)
	fmt.Println()
	s2, err := bench.SweepRules(ruleCounts, fixedEvents, 1)
	if err != nil {
		panic(err)
	}
	s2.PrintTable(os.Stdout)
	fmt.Println()
}

// ablation runs the A1, A2, A4 and A6 experiments of DESIGN.md.
func ablation(quick bool) {
	// 400 rules ≈ 80 production lines × 5 rule families: the scale the
	// sharded engine is built for — single-engine leaf probing grows with
	// the total rule count while each shard's stays per-line constant.
	events, nrules := 100_000, 400
	if quick {
		events, nrules = 10_000, 100
	}

	fmt.Println("=== A1: common sub-graph merging ===")
	w := bench.Fig9Workload(events, nrules, 1, false)
	on, err := bench.RunRCEDA(w, bench.Options{})
	if err != nil {
		panic(err)
	}
	off, err := bench.RunRCEDA(w, bench.Options{}, graph.WithoutMerging())
	if err != nil {
		panic(err)
	}
	fmt.Printf("merging on : %8.1f ms, %d detections\n", ms(on.Elapsed), on.Detections)
	fmt.Printf("merging off: %8.1f ms, %d detections\n", ms(off.Elapsed), off.Detections)
	fmt.Println()

	fmt.Println("=== A2: RCEDA vs type-level ECA (negation-free rule families) ===")
	wECA := bench.Fig9Workload(events, nrules, 1, true)
	rc, err := bench.RunRCEDA(wECA, bench.Options{})
	if err != nil {
		panic(err)
	}
	ec, err := bench.RunECA(wECA)
	if err != nil {
		panic(err)
	}
	fmt.Printf("RCEDA   : %8.1f ms, %d detections (correct)\n", ms(rc.Elapsed), rc.Detections)
	fmt.Printf("ECA     : %8.1f ms, %d detections (type-level; misses/garbles temporally constrained events)\n",
		ms(ec.Elapsed), ec.Detections)
	fmt.Println()

	fmt.Println("=== A4: direct vs pipelined ingestion (channel-staged Fig. 2) ===")
	direct, err := bench.RunRCEDA(w, bench.Options{})
	if err != nil {
		panic(err)
	}
	piped, err := bench.RunPipelined(w, bench.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("direct   : %8.1f ms, %d detections\n", ms(direct.Elapsed), direct.Detections)
	fmt.Printf("pipelined: %8.1f ms, %d detections (incl. dedup stage)\n", ms(piped.Elapsed), piped.Detections)
	fmt.Println()

	fmt.Println("=== A6: key-space sharded engine, internal/core/shard (beyond the paper) ===")
	w6 := bench.Fig9Workload(events, 500, 1, false)
	for _, n := range []int{1, 2, 4, 8} {
		r, err := bench.RunShardEngine(w6, n)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d shard(s): %8.1f ms, %d detections\n", n, ms(r.Elapsed), r.Detections)
	}
	fmt.Println()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }
