package detect

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/rules"
	"rcep/internal/sim"
)

// TestPlanProbesFlatInRuleCount pins the rule-count axis of the paper's
// Fig. 9b: on the detect_only benchmark's generator stream, the plans an
// observation probes track the plans it matches, no matter how many lines
// (and so how many group-typed loc rules) the script has. A dispatch that probed every variable-reader plan would
// grow from about 6.6 to 126.6 probes per observation over these sizes.
func TestPlanProbesFlatInRuleCount(t *testing.T) {
	const n = 10_000
	for _, lines := range []int{5, 20, 80, 125} {
		cfg := sim.DefaultConfig()
		cfg.Seed, cfg.Lines, cfg.DupProb, cfg.Badges = 1, lines, 0.05, 2
		perCase := cfg.ItemsPerCase + 1 + 3 + cfg.ShelfCycles*cfg.ItemsPerCase +
			int(cfg.SellFraction*float64(cfg.ItemsPerCase))
		cfg.CasesPerLine = int(math.Ceil(1.1*n/float64(lines*perCase))) + 1
		sc := sim.Generate(cfg)
		if len(sc.Observations) < n {
			t.Fatalf("%d lines: generator produced %d observations, need %d", lines, len(sc.Observations), n)
		}
		rs, err := rules.ParseScript(sim.RuleScript(lines, sim.AllFamilies()))
		if err != nil {
			t.Fatal(err)
		}
		gb := graph.NewBuilder()
		if err := rules.NewExecutor(rs, nil, nil, nil).Bind(gb); err != nil {
			t.Fatal(err)
		}
		eng, err := New(Config{Graph: gb.Finalize(), Groups: sc.ChainGroups(), TypeOf: sc.Registry.TypeOf})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.IngestBatch(sc.Observations[:n]); err != nil {
			t.Fatal(err)
		}
		m := eng.Metrics()
		probes := float64(m.PlanProbes) / n
		matches := float64(m.PrimMatches) / n
		t.Logf("%3d rules: %.2f plan probes, %.2f prim matches per observation", len(rs.Rules), probes, matches)
		if matches < 1 {
			t.Fatalf("%d rules: %.2f prim matches per observation; the stream is vacuous", len(rs.Rules), matches)
		}
		if probes-matches > 0.1 {
			t.Errorf("%d rules: %.2f plan probes per observation for %.2f matches; dispatch probes plans the reader cannot match",
				len(rs.Rules), probes, matches)
		}
	}
}

// TestDispatchCacheBoundedByReaders feeds 50k distinct EPCs through three
// readers: the engine builds one dispatch list per reader and its cache
// holds three entries, however large the shared intern table grows.
func TestDispatchCacheBoundedByReaders(t *testing.T) {
	groupCalls := map[string]int{}
	g := buildGraph(t, map[int]event.Expr{
		1: primVars("r", "o", "t", event.Pred{Fn: "group", Arg: "r", Op: event.CmpEq, Val: "dock"}),
		2: prim("exit", "o", "t"),
		3: primVars("r", "o", "t", event.Pred{Fn: "type", Arg: "o", Op: event.CmpEq, Val: "laptop"}),
	})
	eng, err := New(Config{
		Graph: g,
		Groups: func(r string) []string {
			groupCalls[r]++
			if r == "exit" {
				return nil
			}
			return []string{"dock"}
		},
		TypeOf: func(o string) string { return "laptop" },
	})
	if err != nil {
		t.Fatal(err)
	}
	readers := []string{"dock_1", "dock_2", "exit"}
	const epcs = 50_000
	batch := make([]event.Observation, 0, 1000)
	for i := 0; i < epcs; i++ {
		batch = append(batch, event.Observation{
			Reader: readers[i%len(readers)], Object: fmt.Sprintf("epc-%06d", i), At: event.Time(i) * event.Time(time.Millisecond),
		})
		if len(batch) == cap(batch) {
			if err := eng.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if got := eng.Interner().Len(); got < epcs {
		t.Fatalf("intern table holds %d symbols, want at least %d", got, epcs)
	}
	if got := len(eng.dispatch); got != len(readers) {
		t.Errorf("dispatch cache holds %d entries for %d readers", got, len(readers))
	}
	for _, r := range readers {
		if groupCalls[r] != 1 {
			t.Errorf("group(%s) evaluated %d times, want once", r, groupCalls[r])
		}
	}
	m := eng.Metrics()
	// dock readers probe plans 1 and 3, exit probes 2 and 3.
	if want := uint64(2 * epcs); m.PlanProbes != want {
		t.Errorf("PlanProbes = %d, want %d", m.PlanProbes, want)
	}
	if want := uint64(2 * epcs); m.PrimMatches != want {
		t.Errorf("PrimMatches = %d, want %d", m.PrimMatches, want)
	}
}
