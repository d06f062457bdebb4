package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"rcep/internal/sim"
)

// TestSelfTimeAccounting: on a hand-built span tree, children never exceed
// their parent and self + children = parent, per span and per name.
func TestSelfTimeAccounting(t *testing.T) {
	spans := []span{
		{Name: "detect.IngestBatch", Start: 0, End: 100, Parent: -1},
		{Name: "rules.Dispatch", Start: 10, End: 30, Parent: 0},
		{Name: "rules.Dispatch", Start: 40, End: 70, Parent: 0},
		{Name: "sqlmini.Exec", Start: 45, End: 60, Parent: 2},
		{Name: "detect.IngestBatch", Start: 100, End: 150, Parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]spanStats{
		"detect.IngestBatch": {count: 2, total: 150, self: 100},
		"rules.Dispatch":     {count: 2, total: 50, self: 35},
		"sqlmini.Exec":       {count: 1, total: 15, self: 15},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	// Σ self over every span is the time covered by top-level spans.
	var self, top time.Duration
	for _, st := range got {
		self += st.self
	}
	for _, s := range spans {
		if s.Parent < 0 {
			top += time.Duration(s.End - s.Start)
		}
	}
	if self != top {
		t.Errorf("self times sum to %d, top-level spans cover %d", self, top)
	}
	for name, st := range got {
		if st.self < 0 || st.self > st.total {
			t.Errorf("%s: self %d outside [0, total %d]", name, st.self, st.total)
		}
	}
}

// busyShare runs one traced pass and returns the traced spans' summed self
// time as a share of the pass's wall time.
func busyShare(t *testing.T, r runner) float64 {
	t.Helper()
	rec := newRecorder()
	p, err := r.pass(rec)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 {
		t.Fatalf("traced pass failed %d operations", p.failed)
	}
	var busy time.Duration
	for _, st := range rec.byName() {
		busy += st.self
	}
	return busy.Seconds() / p.m.wall.Seconds()
}

// TestBusyTimeCoversTheWall: on the single-goroutine workloads the spans
// leave nothing unaccounted — per-layer busy time is within 10% of the
// pass's wall time. (The wall is the traced pass's own, so a noisy
// neighbour cannot separate the two numbers; the best of five attempts
// absorbs a preemption that lands between two spans.) That busy time never
// exceeds the wall is accounting and holds on any machine; the 90% floor
// needs a machine that is not preempting the test all the time, so -short
// leaves it out.
func TestBusyTimeCoversTheWall(t *testing.T) {
	floor := 0.9
	if testing.Short() {
		floor = 0
	}
	spec := streamSpec{lines: 4, obs: 4000, families: sim.AllFamilies()}
	for name, setup := range map[string]func() (runner, error){
		"detect_only": func() (runner, error) { return setupDetectOnly(1, spec) },
		"actions":     func() (runner, error) { return setupFacade(1, spec, false) },
		"query_mix":   func() (runner, error) { return setupFacade(1, spec, true) },
	} {
		r, err := setup()
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for i := 0; i < 5; i++ {
			if best = busyShare(t, r); best >= floor && best <= 1.0 {
				break
			}
		}
		if best < floor || best > 1.0 {
			t.Errorf("%s: spans cover %.1f%% of the wall time, want %.0f–100%%", name, 100*best, 100*floor)
		}
	}
}

// TestTraceFileIsChromeJSON: the written file is an array of complete
// ("X") events with microsecond times — what Perfetto opens.
func TestTraceFileIsChromeJSON(t *testing.T) {
	rec := newRecorder()
	outer := rec.begin("detect.IngestBatch", -1, laneMain)
	inner := rec.begin("rules.Dispatch", outer, laneMain)
	rec.end(inner)
	rec.end(outer)
	path, err := rec.write(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not a JSON array of events: %v", err)
	}
	if len(events) != 2 || events[0].Ph != "X" || events[1].Cat != "rules" || events[0].Dur < events[1].Dur {
		t.Errorf("unexpected events: %+v", events)
	}
}

// TestNilRecorderIsFree: the untraced run calls begin/end on a nil
// recorder.
func TestNilRecorderIsFree(t *testing.T) {
	var rec *recorder
	rec.end(rec.begin("x.y", -1, laneMain))
}
