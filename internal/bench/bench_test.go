package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig9WorkloadSizing(t *testing.T) {
	w := Fig9Workload(2000, 25, 1, false)
	if len(w.Observations) == 0 {
		t.Fatalf("empty workload")
	}
	if len(w.Observations) > 2000 {
		t.Errorf("workload exceeds requested events: %d", len(w.Observations))
	}
	if float64(len(w.Observations)) < 0.5*2000 {
		t.Errorf("workload much smaller than requested: %d", len(w.Observations))
	}
	rs, err := w.parseRules()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 25 {
		t.Errorf("rules: %d, want 25", len(rs.Rules))
	}
}

func TestRunRCEDASmoke(t *testing.T) {
	w := Fig9Workload(1500, 10, 1, false)
	r, err := RunRCEDA(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Detections == 0 {
		t.Errorf("no detections on a supply-chain workload")
	}
	if r.Events != len(w.Observations) || r.Rules != 10 {
		t.Errorf("result bookkeeping: %+v", r)
	}
	if r.Throughput() <= 0 {
		t.Errorf("throughput: %v", r.Throughput())
	}
}

func TestRunRCEDAWithActions(t *testing.T) {
	w := Fig9Workload(800, 10, 1, false)
	r, err := RunRCEDA(w, Options{IncludeActions: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Detections == 0 {
		t.Errorf("no detections with actions enabled")
	}
}

func TestRunECASmoke(t *testing.T) {
	w := Fig9Workload(1500, 9, 1, true)
	r, err := RunECA(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events == 0 {
		t.Errorf("no events processed")
	}
}

func TestECAWorkloadWithNegationFails(t *testing.T) {
	w := Fig9Workload(500, 10, 1, false) // includes shelf/asset (negation)
	if _, err := RunECA(w); err == nil {
		t.Fatalf("ECA baseline should reject negation rules")
	}
}

func TestMergingAblationSameDetections(t *testing.T) {
	w := Fig9Workload(1200, 15, 3, false)
	a, err := RunRCEDA(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRCEDA(w, Options{DisableMerging: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Detections != b.Detections {
		t.Fatalf("merging changed detections: %d vs %d", a.Detections, b.Detections)
	}
}

func TestRunPipelinedSmoke(t *testing.T) {
	w := Fig9Workload(1500, 10, 1, false)
	direct, err := RunRCEDA(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	piped, err := RunPipelined(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The dedup stage may suppress injected duplicates, so detections
	// can differ slightly, but both paths must detect something and
	// process every event.
	if piped.Detections == 0 || piped.Events != direct.Events {
		t.Fatalf("pipelined: %+v vs direct %+v", piped, direct)
	}
}

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

func TestSweepsAndTable(t *testing.T) {
	s, err := SweepEvents([]int{300, 600}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 || s.Points[1].Y.Events <= s.Points[0].Y.Events {
		t.Fatalf("event sweep: %+v", s.Points)
	}
	var buf bytes.Buffer
	s.PrintTable(&buf)
	out := buf.String()
	for _, frag := range []string{"#events", "total time (ms)", "detections"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}

	s2, err := SweepRules([]int{5, 10}, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Points) != 2 || s2.Points[0].Y.Rules != 5 || s2.Points[1].Y.Rules != 10 {
		t.Fatalf("rule sweep: %+v", s2.Points)
	}
}
