package rcep

// Benchmarks regenerating the paper's evaluation (Fig. 9) and the
// DESIGN.md ablations, one benchmark per figure/experiment. The paper's
// methodology is followed: total event processing time is measured with
// action cost excluded. Run:
//
//	go test -bench=. -benchmem
//
// cmd/experiments prints the same data as paper-style tables at full
// scale (250k events, 500 rules).

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rcep/internal/bench"
	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/eca"
)

// reportPerEvent attaches events/sec style metrics to a sub-benchmark.
func reportPerEvent(b *testing.B, r bench.Result) {
	b.Helper()
	if r.Events > 0 {
		b.ReportMetric(float64(r.Elapsed.Nanoseconds())/float64(r.Events), "ns/event")
	}
	b.ReportMetric(float64(r.Detections), "detections")
}

// BenchmarkFig9aEventsScaling is Fig. 9's first series: total processing
// time vs number of primitive events at a fixed rule count.
func BenchmarkFig9aEventsScaling(b *testing.B) {
	for _, events := range []int{10_000, 25_000, 50_000} {
		w := bench.Fig9Workload(events, 25, 1, false)
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				r, err := bench.RunRCEDA(w, bench.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportPerEvent(b, last)
		})
	}
}

// BenchmarkFig9bRulesScaling is Fig. 9's second series: total processing
// time vs number of rules at a fixed event count.
func BenchmarkFig9bRulesScaling(b *testing.B) {
	for _, nrules := range []int{25, 100, 250} {
		w := bench.Fig9Workload(20_000, nrules, 1, false)
		b.Run(fmt.Sprintf("rules=%d", nrules), func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				r, err := bench.RunRCEDA(w, bench.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportPerEvent(b, last)
		})
	}
}

// BenchmarkFig4Correctness measures both engines on the paper's Fig. 4
// micro-history (the correctness experiment; timing is incidental).
func BenchmarkFig4Correctness(b *testing.B) {
	ts := func(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }
	prim := func(reader, objVar, timeVar string) *event.Prim {
		return &event.Prim{
			Reader: event.Term{Lit: reader},
			Object: event.Term{Var: objVar},
			At:     event.Term{Var: timeVar},
		}
	}
	expr := func() event.Expr {
		return &event.TSeq{
			L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
			R:  prim("r2", "o2", "t2"),
			Lo: 5 * time.Second, Hi: 10 * time.Second,
		}
	}
	history := []event.Observation{
		{Reader: "r1", Object: "i1", At: ts(1)}, {Reader: "r1", Object: "i2", At: ts(2)},
		{Reader: "r1", Object: "i3", At: ts(3)}, {Reader: "r1", Object: "i5", At: ts(5)},
		{Reader: "r1", Object: "i6", At: ts(6)}, {Reader: "r1", Object: "i7", At: ts(7)},
		{Reader: "r2", Object: "c1", At: ts(12)}, {Reader: "r2", Object: "c2", At: ts(15)},
	}
	b.Run("rceda", func(b *testing.B) {
		detections := 0
		for i := 0; i < b.N; i++ {
			gb := graph.NewBuilder()
			if _, err := gb.AddRule(1, expr()); err != nil {
				b.Fatal(err)
			}
			eng, err := detect.New(detect.Config{
				Graph:    gb.Finalize(),
				OnDetect: func(int, *event.Instance) { detections++ },
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range history {
				if err := eng.Ingest(o); err != nil {
					b.Fatal(err)
				}
			}
			eng.Close()
		}
		if detections != 2*b.N {
			b.Fatalf("RCEDA must detect exactly 2 per pass, got %d over %d passes", detections, b.N)
		}
	})
	b.Run("eca-baseline", func(b *testing.B) {
		detections := 0
		for i := 0; i < b.N; i++ {
			eng, err := eca.New(eca.Config{
				Rules:    map[int]event.Expr{1: expr()},
				OnDetect: func(int, *event.Instance) { detections++ },
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range history {
				if err := eng.Ingest(o); err != nil {
					b.Fatal(err)
				}
			}
		}
		if detections != 0 {
			b.Fatalf("type-level baseline must detect 0 (the paper's point), got %d", detections)
		}
	})
}

// BenchmarkAblationSubgraphMerging is DESIGN.md A1: common sub-graph
// merging on vs off, identical detections.
func BenchmarkAblationSubgraphMerging(b *testing.B) {
	w := bench.Fig9Workload(20_000, 100, 1, false)
	for _, mode := range []struct {
		name  string
		gopts []graph.Option
	}{{"merged", nil}, {"unmerged", []graph.Option{graph.WithoutMerging()}}} {
		b.Run(mode.name, func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				r, err := bench.RunRCEDA(w, bench.Options{}, mode.gopts...)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportPerEvent(b, last)
		})
	}
}

// BenchmarkAblationBaselineECA is DESIGN.md A2: RCEDA vs the type-level
// ECA baseline on negation-free rule families.
func BenchmarkAblationBaselineECA(b *testing.B) {
	w := bench.Fig9Workload(20_000, 60, 1, true)
	b.Run("rceda", func(b *testing.B) {
		var last bench.Result
		for i := 0; i < b.N; i++ {
			r, err := bench.RunRCEDA(w, bench.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		reportPerEvent(b, last)
	})
	b.Run("eca", func(b *testing.B) {
		var last bench.Result
		for i := 0; i < b.N; i++ {
			r, err := bench.RunECA(w)
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		reportPerEvent(b, last)
	})
}

// BenchmarkActionsIncluded quantifies the action cost the paper excludes:
// the same workload with SQL actions and the data store live.
func BenchmarkActionsIncluded(b *testing.B) {
	w := bench.Fig9Workload(10_000, 25, 1, false)
	for _, mode := range []struct {
		name    string
		actions bool
	}{{"detect-only", false}, {"with-actions", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				r, err := bench.RunRCEDA(w, bench.Options{IncludeActions: mode.actions})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportPerEvent(b, last)
		})
	}
}

// BenchmarkAblationPipelined is DESIGN.md A4: direct single-threaded
// ingestion vs the channel-staged Fig. 2 pipeline.
func BenchmarkAblationPipelined(b *testing.B) {
	w := bench.Fig9Workload(20_000, 25, 1, false)
	b.Run("direct", func(b *testing.B) {
		var last bench.Result
		for i := 0; i < b.N; i++ {
			r, err := bench.RunRCEDA(w, bench.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		reportPerEvent(b, last)
	})
	b.Run("pipelined", func(b *testing.B) {
		var last bench.Result
		for i := 0; i < b.N; i++ {
			r, err := bench.RunPipelined(w, bench.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		reportPerEvent(b, last)
	})
}

// BenchmarkAblationSharded is DESIGN.md A6: the key-space sharded engine
// (internal/core/shard). On multi-core hosts this scales with shard count;
// on one core it measures the coordination overhead.
func BenchmarkAblationSharded(b *testing.B) {
	w := bench.Fig9Workload(20_000, 100, 1, false)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			var last bench.Result
			for i := 0; i < b.N; i++ {
				r, err := bench.RunShardEngine(w, n)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportPerEvent(b, last)
		})
	}
}

// BenchmarkCheckpoint measures full-state checkpointing cost mid-stream.
func BenchmarkCheckpoint(b *testing.B) {
	eng, err := New(Config{Rules: `
CREATE RULE r1, dup
ON WITHIN(observation(r, o, t1); observation(r, o, t2), 60sec)
IF true
DO noop()
`})
	if err != nil {
		b.Fatal(err)
	}
	eng.RegisterProcedure("noop", func(ProcContext, []any) error { return nil })
	// Load up in-flight state: 5k pending initiators.
	for i := 0; i < 5000; i++ {
		if err := eng.Ingest("r1", fmt.Sprintf("o%d", i), time.Duration(i)*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := eng.SaveCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
		size = buf.Len()
	}
	b.ReportMetric(float64(size), "bytes")
}

// BenchmarkFacadeIngest measures the public API's per-observation
// overhead on a single simple rule.
func BenchmarkFacadeIngest(b *testing.B) {
	eng, err := New(Config{Rules: `
CREATE RULE r1, duplicate detection rule
ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
IF true
DO noop()
`})
	if err != nil {
		b.Fatal(err)
	}
	eng.RegisterProcedure("noop", func(ProcContext, []any) error { return nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		if err := eng.Ingest("r1", fmt.Sprintf("o%d", i%1000), at); err != nil {
			b.Fatal(err)
		}
	}
}
