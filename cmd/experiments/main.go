// Command experiments regenerates the paper's figures and this
// repository's ablations (see DESIGN.md §4 for the experiment index).
// Performance claims come from the repository benchmark (BENCHMARK.json,
// benchmark/README.md), not from these tables.
//
// Usage:
//
//	experiments fig4              correctness: RCEDA vs type-level ECA (paper §4.1)
//	experiments fig8              pseudo-event walkthrough (paper §4.5)
//	experiments fig9 [-quick]     processing time vs #events and vs #rules (paper §5)
//	experiments ablation [-quick] sub-graph merging, ECA throughput, dispatch, pipeline, shards
//	experiments graph             the paper's five rules as a Graphviz event graph
//	experiments all [-quick]      fig4, fig8, fig9 and ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rcep/internal/bench"
	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/eca"
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
	case "fig4":
		fig4()
	case "fig8":
		fig8()
	case "fig9":
		fig9(*quick)
	case "ablation":
		ablation(*quick)
	case "graph":
		graphDot()
	case "all":
		fig4()
		fig8()
		fig9(*quick)
		ablation(*quick)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments fig4|fig8|fig9|ablation|graph|all [-quick] [-cpuprofile f] [-memprofile f] [-trace f]")
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

func ts(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }

func prim(reader, objVar, timeVar string) *event.Prim {
	return &event.Prim{
		Reader: event.Term{Lit: reader},
		Object: event.Term{Var: objVar},
		At:     event.Term{Var: timeVar},
	}
}

func fig4Expr() event.Expr {
	return &event.TSeq{
		L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
		R:  prim("r2", "o2", "t2"),
		Lo: 5 * time.Second, Hi: 10 * time.Second,
	}
}

func fig4History() []event.Observation {
	return []event.Observation{
		{Reader: "r1", Object: "i1", At: ts(1)}, {Reader: "r1", Object: "i2", At: ts(2)},
		{Reader: "r1", Object: "i3", At: ts(3)}, {Reader: "r1", Object: "i5", At: ts(5)},
		{Reader: "r1", Object: "i6", At: ts(6)}, {Reader: "r1", Object: "i7", At: ts(7)},
		{Reader: "r2", Object: "c1", At: ts(12)}, {Reader: "r2", Object: "c2", At: ts(15)},
	}
}

// fig4 reproduces the paper's §4.1/Fig. 4 incorrectness argument.
func fig4() {
	fmt.Println("=== Fig 4: instance-level temporal constraints vs type-level ECA ===")
	fmt.Println("event: E = TSEQ(TSEQ+(E1, 0sec, 1sec); E2, 5sec, 10sec)")
	fmt.Println("history: e1@1,2,3  e1@5,6,7  e2@12  e2@15")
	fmt.Println("expected instances: {e1@1,2,3 + e2@12}, {e1@5,6,7 + e2@15}")
	fmt.Println()

	b := graph.NewBuilder()
	if _, err := b.AddRule(1, fig4Expr()); err != nil {
		panic(err)
	}
	var rcedaOut []string
	eng, err := detect.New(detect.Config{
		Graph: b.Finalize(),
		OnDetect: func(_ int, in *event.Instance) {
			items, _ := in.Binds.Get("o1")
			cs, _ := in.Binds.Get("o2")
			rcedaOut = append(rcedaOut, fmt.Sprintf("  %v items=%v case=%v", in, items, cs))
		},
	})
	if err != nil {
		panic(err)
	}
	for _, o := range fig4History() {
		if err := eng.Ingest(o); err != nil {
			panic(err)
		}
	}
	eng.Close()
	fmt.Printf("RCEDA detections: %d\n", len(rcedaOut))
	for _, s := range rcedaOut {
		fmt.Println(s)
	}

	baseline, err := eca.New(eca.Config{Rules: map[int]event.Expr{1: fig4Expr()}})
	if err != nil {
		panic(err)
	}
	ecaCount := 0
	baseline2, _ := eca.New(eca.Config{
		Rules:    map[int]event.Expr{1: fig4Expr()},
		OnDetect: func(int, *event.Instance) { ecaCount++ },
	})
	for _, o := range fig4History() {
		_ = baseline.Ingest(o)
		_ = baseline2.Ingest(o)
	}
	m := baseline.Metrics()
	fmt.Printf("type-level ECA detections: %d (assembled %d composite(s), all %d rejected by the post-hoc constraint check)\n",
		ecaCount, m.Assembled, m.Rejected)
	fmt.Println()
}

// fig8 replays the paper's Fig. 8 pseudo-event walkthrough.
func fig8() {
	fmt.Println("=== Fig 8: detecting WITHIN(E1 AND NOT E2, 10sec) with pseudo events ===")
	fmt.Println("history: e2@2  e1@10  e1@20")
	ex := &event.Within{
		X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
		Max: 10 * time.Second,
	}
	b := graph.NewBuilder()
	if _, err := b.AddRule(1, ex); err != nil {
		panic(err)
	}
	eng, err := detect.New(detect.Config{
		Graph: b.Finalize(),
		OnDetect: func(_ int, in *event.Instance) {
			fmt.Printf("  detected E spanning [%v, %v] with %v\n", in.Begin, in.End, in.Binds)
		},
	})
	if err != nil {
		panic(err)
	}
	steps := []struct {
		obs  event.Observation
		note string
	}{
		{event.Observation{Reader: "r2", Object: "u1", At: ts(2)}, "e2@2 recorded in the negated child's history"},
		{event.Observation{Reader: "r1", Object: "L1", At: ts(10)}, "e1@10 killed by e2@2 in window [0,10]"},
		{event.Observation{Reader: "r1", Object: "L2", At: ts(20)}, "e1@20 clean in [10,20]; pseudo event scheduled at t=30"},
	}
	for _, s := range steps {
		if err := eng.Ingest(s.obs); err != nil {
			panic(err)
		}
		fmt.Printf("  t=%-4v %s\n", s.obs.At, s.note)
	}
	fmt.Println("  advancing to t=30 fires the pseudo event:")
	if err := eng.AdvanceTo(ts(30)); err != nil {
		panic(err)
	}
	m := eng.Metrics()
	fmt.Printf("  pseudo events scheduled=%d fired=%d\n\n", m.PseudoScheduled, m.PseudoFired)
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

// ablation runs the A1, A2, A4, A5 and A6 experiments of DESIGN.md.
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
	off, err := bench.RunRCEDA(w, bench.Options{DisableMerging: true})
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

	fmt.Println("=== A5: primitive dispatch — linear leaf probing vs compiled symbol index (beyond the paper) ===")
	w5 := bench.Fig9Workload(events, 500, 1, false)
	lin, err := bench.RunRCEDA(w5, bench.Options{Interpreted: true})
	if err != nil {
		panic(err)
	}
	idx, err := bench.RunRCEDA(w5, bench.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("linear probe, interpreted (paper): %8.1f ms, %d detections (500 rules)\n", ms(lin.Elapsed), lin.Detections)
	fmt.Printf("symbol index, compiled (default) : %8.1f ms, %d detections\n", ms(idx.Elapsed), idx.Detections)
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
	for _, n := range []int{1, 2, 4, 8} {
		r, err := bench.RunShardEngine(w5, n, bench.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%d shard(s): %8.1f ms, %d detections\n", n, ms(r.Elapsed), r.Detections)
	}
	fmt.Println()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000.0 }
