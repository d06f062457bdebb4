package pipeline

import (
	"context"
	"sort"
	"testing"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/core/shard"
	"rcep/internal/rules"
	"rcep/internal/sim"
)

// TestPipelineFeedsShardedEngine runs the full concurrent path — batch
// source, filtering stages, batch sink — into the sharded engine and
// checks it detects exactly what a single engine fed by the same pipeline
// detects.
func TestPipelineFeedsShardedEngine(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Lines = 2
	cfg.DupProb = 0.2
	sc := sim.Generate(cfg)
	rs, err := rules.ParseScript(sim.RuleScript(cfg.Lines, sim.AllFamilies()))
	if err != nil {
		t.Fatal(err)
	}

	sig := func(rid int, inst *event.Instance) string {
		return inst.String() + "#" + rs.Rules[rid].ID
	}

	batches := chunk(sc.Observations, 32)
	runPipe := func(sink func([]event.Observation) error) {
		t.Helper()
		err := RunBatches(context.Background(), BatchedConfig{
			Source: BatchSliceSource(batches),
			Stages: []StageFunc{Dedup(time.Second)},
			Sink:   func(b event.Batch) error { return sink(b) },
			Buffer: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var want []string
	b := graph.NewBuilder()
	for i, r := range rs.Rules {
		if _, err := b.AddRule(i, r.Event); err != nil {
			t.Fatal(err)
		}
	}
	single, err := detect.New(detect.Config{
		Graph:  b.Finalize(),
		Groups: sc.ChainGroups(),
		TypeOf: sc.Registry.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) {
			want = append(want, sig(rid, inst))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runPipe(single.IngestBatch)
	single.Close()
	if len(want) == 0 {
		t.Fatal("single-engine pipeline detected nothing; workload is vacuous")
	}

	shRules := make([]shard.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		shRules[i] = shard.Rule{ID: i, Expr: r.Event}
	}
	var got []string
	sharded, err := shard.New(shard.Config{
		Rules:  shRules,
		Shards: 4,
		Groups: sc.ChainGroups(),
		TypeOf: sc.Registry.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) {
			got = append(got, sig(rid, inst))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runPipe(sharded.IngestBatch)
	sharded.Close()
	if err := sharded.Err(); err != nil {
		t.Fatal(err)
	}

	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("sharded pipeline: %d detections, single: %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("detection %d: %s vs single %s", i, got[i], want[i])
		}
	}
}
