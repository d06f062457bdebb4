package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// testDiv scales every stream to 1/50 so the whole benchmark runs in the
// tier-1 suite; numbers are not asserted, correctness is.
const (
	testDiv     = 50
	testSeconds = 0.1
)

// TestEveryWorkloadSmall runs every workload untraced at seeds 1 and 2 and
// traced at seed 1, with the oracle on.
func TestEveryWorkloadSmall(t *testing.T) {
	chdirRoot(t) // traced runs write spans under benchmark/out
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) { everyMode(t, w) })
	}
}

func everyMode(t *testing.T, w workload) {
	if testing.Short() && w.name == "path_paced_1k" {
		t.Skip("paced on the wall clock: a detection a stalled machine delivers over a second late counts as failed")
	}
	for _, c := range []struct {
		seed   int64
		traced bool
	}{{1, false}, {2, false}, {1, true}} {
		res, err := measure(w, c.seed, testSeconds, c.traced, testDiv)
		if err != nil {
			t.Errorf("%s seed %d traced=%v: %v", w.name, c.seed, c.traced, err)
			continue
		}
		// Failed is the oracle and the error counts. The paced generator's
		// own punctuality, which a loaded test machine may miss, only warns.
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s seed %d traced=%v: %d of %d operations failed", w.name, c.seed, c.traced, res.Failed, res.Attempted)
		}
		defs := endToEnd
		if c.traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s traced=%v: %d metrics, want %d", w.name, c.traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, c.traced, d.name, m, ok)
			}
			if !c.traced && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.name, m.Value)
			}
		}
	}
}

// chdirRoot moves to the repository root, where the driver runs the
// benchmark from, and back when the test ends.
func chdirRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
}

// TestReportSizeIsAsserted: set-up refuses a stream whose mean report size
// is not the one its workload exists for, so the two saturating path
// workloads cannot silently become the same workload.
func TestReportSizeIsAsserted(t *testing.T) {
	conveyor := streamSpec{lines: 80, obs: 2000, families: pathFamilies}
	bulk := streamSpec{lines: 1, obs: 2000, families: pathFamilies, itemsPerCase: 48, shelfCycles: 20}
	for _, c := range []struct {
		name string
		spec streamSpec
		tags [2]float64
		ok   bool
	}{
		{"conveyor as per-frame", conveyor, perFrame, true},
		{"conveyor as per-tag", conveyor, perTag, false},
		{"bulk as per-tag", bulk, perTag, true},
		{"bulk as per-frame", bulk, perFrame, false},
	} {
		if _, err := setupPath(1, c.spec, 0, testDiv, c.tags); (err == nil) != c.ok {
			t.Errorf("%s: set-up returned %v, accepted should be %v", c.name, err, c.ok)
		}
	}
}

// TestContractMatchesCode: BENCHMARK.json names exactly the workloads and
// metrics the program reports, with the same units.
func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var c struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, c.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in code", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd)
	same("per_layer", c.PerLayer, perLayer)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the spread the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) → [2.75, 5.5, 8.25]
	// >>> statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) → [1.25, 3.5, 5.75]
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}
