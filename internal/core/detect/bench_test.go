package detect

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/rules"
	"rcep/internal/sim"
)

// Per-operator ingestion micro-benchmarks: cost of one observation
// through each constructor shape.

func benchEngine(b *testing.B, expr event.Expr) *Engine {
	b.Helper()
	gb := graph.NewBuilder()
	if _, err := gb.AddRule(1, expr); err != nil {
		b.Fatal(err)
	}
	eng, err := New(Config{Graph: gb.Finalize()})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func BenchmarkIngestPrimitive(b *testing.B) {
	eng := benchEngine(b, prim("r1", "o", "t"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.Ingest(event.Observation{Reader: "r1", Object: "o1", At: event.Time(i) * event.Time(time.Millisecond)})
	}
}

func BenchmarkIngestSeqJoin(b *testing.B) {
	// The dup-filter shape: partitioned join on (r, o).
	eng := benchEngine(b, &event.Within{
		X:   &event.Seq{L: primVars("r", "o", "t1"), R: primVars("r", "o", "t2")},
		Max: 5 * time.Second,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := fmt.Sprintf("o%d", i%64)
		_ = eng.Ingest(event.Observation{Reader: "r1", Object: o, At: event.Time(i) * event.Time(time.Millisecond)})
	}
}

func BenchmarkIngestTSeqPlus(b *testing.B) {
	eng := benchEngine(b, &event.TSeq{
		L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
		R:  prim("r2", "o2", "t2"),
		Lo: 5 * time.Second, Hi: 10 * time.Second,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.Ingest(event.Observation{Reader: "r1", Object: "x", At: event.Time(i) * event.Time(100*time.Millisecond)})
	}
}

func BenchmarkIngestNegationWindow(b *testing.B) {
	eng := benchEngine(b, &event.Within{
		X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
		Max: 5 * time.Second,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := "r1"
		if i%3 == 0 {
			r = "r2"
		}
		_ = eng.Ingest(event.Observation{Reader: r, Object: "x", At: event.Time(i) * event.Time(100*time.Millisecond)})
	}
}

func BenchmarkIngestNonMatching(b *testing.B) {
	// The common case in wide deployments: the observation matches no
	// leaf pattern of this rule.
	eng := benchEngine(b, prim("r1", "o", "t"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.Ingest(event.Observation{Reader: "other", Object: "o1", At: event.Time(i) * event.Time(time.Millisecond)})
	}
}

// BenchmarkIngestInfieldShelf is the shelf-heavy probe behind
// path_bulk_saturate's engine share: a bare engine fed in IngestBatch
// calls of 256 from one line at 48 items per case and 20 shelf cycles
// (100k observations, seed 1), with the shelf family — Rule 2 infield
// filtering, one negation probe per shelf read — alone and with all three
// path families. One op is the whole stream.
func BenchmarkIngestInfieldShelf(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Seed, cfg.Lines, cfg.DupProb, cfg.Badges = 1, 1, 0.05, 2
	cfg.ItemsPerCase, cfg.ShelfCycles = 48, 20
	const n = 100_000
	perCase := cfg.ItemsPerCase + 4 + cfg.ShelfCycles*cfg.ItemsPerCase +
		int(cfg.SellFraction*float64(cfg.ItemsPerCase))
	cfg.CasesPerLine = int(math.Ceil(1.1*n/float64(perCase))) + 1
	sc := sim.Generate(cfg)
	if len(sc.Observations) < n {
		b.Fatalf("generator produced %d observations, need %d", len(sc.Observations), n)
	}
	stream := sc.Observations[:n]
	for _, families := range [][]string{{"shelf"}, {"dup", "shelf", "asset"}} {
		rs, err := rules.ParseScript(sim.RuleScript(1, families))
		if err != nil {
			b.Fatal(err)
		}
		gb := graph.NewBuilder()
		if err := rules.NewExecutor(rs, nil, nil, nil).Bind(gb); err != nil {
			b.Fatal(err)
		}
		g := gb.Finalize()
		b.Run(strings.Join(families, "+"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng, err := New(Config{Graph: g, Groups: sc.ChainGroups(), TypeOf: sc.Registry.TypeOf})
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < n; lo += 256 {
					if err := eng.IngestBatch(stream[lo:min(lo+256, n)]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}
