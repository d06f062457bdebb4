package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunShardEngineMatchesSingle pins the benchmark harness itself: the
// sharded run must detect exactly what the single engine detects, at every
// shard count, or the throughput numbers are meaningless.
func TestRunShardEngineMatchesSingle(t *testing.T) {
	w := Fig9Workload(800, 10, 1, false)
	base, err := RunRCEDA(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Detections == 0 {
		t.Fatal("workload produced no detections; benchmark is vacuous")
	}
	for _, n := range []int{1, 2, 4, 8} {
		r, err := RunShardEngine(w, n, Options{})
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		if r.Detections != base.Detections {
			t.Errorf("shards=%d: %d detections, single engine %d", n, r.Detections, base.Detections)
		}
		if r.Events != base.Events {
			t.Errorf("shards=%d: %d events, want %d", n, r.Events, base.Events)
		}
	}
}

func TestSweepShardsReport(t *testing.T) {
	rep, err := SweepShards([]int{1, 2}, 600, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points: %+v", rep.Points)
	}
	for _, p := range rep.Points {
		if p.Detections != rep.BaselineDets {
			t.Errorf("shards=%d detections %d != baseline %d", p.Shards, p.Detections, rep.BaselineDets)
		}
		if p.Workers < 1 || p.Workers > p.Shards {
			t.Errorf("shards=%d: workers=%d out of range", p.Shards, p.Workers)
		}
		if p.Speedup <= 0 || p.Throughput <= 0 {
			t.Errorf("shards=%d: non-positive speedup/throughput: %+v", p.Shards, p)
		}
	}

	var buf bytes.Buffer
	rep.PrintTable(&buf)
	for _, frag := range []string{"shards", "events/sec", "speedup", "single"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("table missing %q:\n%s", frag, buf.String())
		}
	}
}
