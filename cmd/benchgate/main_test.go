package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestGatedMetricsOfTheContract pins which of the repository's metrics
// the gate holds to a bound: the counts, never a time.
func TestGatedMetricsOfTheContract(t *testing.T) {
	c, err := loadContract("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	if c.RunSeconds <= 0 {
		t.Errorf("BENCHMARK.json run_seconds = %d; -pairs runs need it", c.RunSeconds)
	}
	var got []string
	for i, specs := range [2][]metricSpec{c.EndToEnd, c.PerLayer} {
		for _, m := range specs {
			if bound, ok := gated(m, i == 1); ok {
				if bound <= 0 {
					t.Errorf("%s is gated with bound %v", m.Name, bound)
				}
				got = append(got, m.Name)
			}
		}
	}
	want := []string{"allocs_per_event", "retained_heap_mb", "wire.bytes_per_event",
		"detect.allocs_per_event", "detect.prim_matches_per_event", "detect.emitted_per_event",
		"detect.pseudo_per_event", "detect.detections_per_event"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gated metrics %v, want %v", got, want)
	}
}

func TestWorseBy(t *testing.T) {
	for _, tc := range []struct {
		better       string
		parent, head float64
		want         float64
	}{
		{"lower", 10, 11, 0.1},
		{"lower", 10, 9, -0.1},
		{"higher", 10, 9, 0.1},
		{"higher", 10, 11, -0.1},
		{"lower", 0, 0, 0},
		{"lower", 0, 1, math.Inf(1)},
		{"higher", 0, 1, math.Inf(-1)},
	} {
		if got := worseBy(tc.better, tc.parent, tc.head); math.Abs(got-tc.want) > 1e-12 && got != tc.want {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", tc.better, tc.parent, tc.head, got, tc.want)
		}
	}
}

// fakeRun builds a run from name=value pairs.
func fakeRun(digest string, failed uint64, kv ...any) *run {
	r := &run{Correct: failed == 0, Failed: failed, digest: digest, Metrics: map[string]metric{}}
	for i := 0; i < len(kv); i += 2 {
		r.Metrics[kv[i].(string)] = metric{kv[i+1].(float64)}
	}
	return r
}

var testContract = &contract{
	EndToEnd: []metricSpec{
		{Name: "throughput_eps", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "allocs_per_event", Unit: "allocs/ev", Better: "lower", Bound: 0.05},
	},
	PerLayer: []metricSpec{
		{Name: "wire.ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "detect.emitted_per_event", Unit: "1/ev", Better: "lower"},
	},
}

// TestJudge: times are reported however far they move; a count past its
// bound, an incorrect run and a changed digest each fail the gate.
func TestJudge(t *testing.T) {
	parent := [2]*run{
		fakeRun("10/ab", 0, "throughput_eps", 1000.0, "allocs_per_event", 2.0),
		fakeRun("10/ab", 0, "wire.ns_per_event", 100.0, "detect.emitted_per_event", 1.0),
	}
	for _, tc := range []struct {
		name string
		head [2]*run
		fail []string // substrings, one per expected failure
	}{
		{"equal", parent, nil},
		{"times move freely", [2]*run{
			fakeRun("10/ab", 0, "throughput_eps", 100.0, "allocs_per_event", 2.09),
			fakeRun("10/ab", 0, "wire.ns_per_event", 900.0, "detect.emitted_per_event", 1.04),
		}, nil},
		{"counts past bound", [2]*run{
			fakeRun("10/ab", 0, "throughput_eps", 1000.0, "allocs_per_event", 2.2),
			fakeRun("10/ab", 0, "wire.ns_per_event", 100.0, "detect.emitted_per_event", 1.06),
		}, []string{"allocs_per_event worse by +10.0%", "detect.emitted_per_event worse by +6.0%"}},
		{"oracle failed", [2]*run{
			fakeRun("10/ab", 3, "throughput_eps", 1000.0, "allocs_per_event", 2.0),
			parent[1],
		}, []string{"(trace 0): oracle failed 3"}},
		{"digest changed", [2]*run{
			fakeRun("11/cd", 0, "throughput_eps", 1000.0, "allocs_per_event", 2.0),
			parent[1],
		}, []string{`reference detections "11/cd", parent "10/ab"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			fails := judge(&out, testContract, "w", parent, tc.head)
			if len(fails) != len(tc.fail) {
				t.Fatalf("failures %q, want %d\n%s", fails, len(tc.fail), out.String())
			}
			for i, want := range tc.fail {
				if !strings.Contains(fails[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, fails[i], want)
				}
			}
			if strings.Contains(out.String(), "wire.ns_per_event") {
				t.Errorf("ungated per-layer metric in the report:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "| `throughput_eps` | 1/s | 1000 |") {
				t.Errorf("end-to-end time missing from the report:\n%s", out.String())
			}
		})
	}
}

func TestSignTestP(t *testing.T) {
	for _, tc := range []struct {
		k, n int
		want float64
	}{
		{6, 6, 0.03125},
		{0, 6, 0.03125},
		{3, 6, 1},
		{5, 6, 0.21875},
		{10, 10, 0.001953125},
		{9, 10, 0.021484375},
		{0, 0, 1},
	} {
		if got := signTestP(tc.k, tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", tc.k, tc.n, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(vs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", vs, tc.q, got, tc.want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}

// TestSummarizePairs: wins follow each metric's direction, ties drop out
// of the sign test, and counts are left to the gate.
func TestSummarizePairs(t *testing.T) {
	specs := []metricSpec{
		{Name: "throughput_eps", Unit: "1/s", Better: "higher", Bound: 0.25},
		{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
		{Name: "allocs_per_event", Unit: "allocs/ev", Better: "lower", Bound: 0.05},
	}
	var parent, head []*run
	for i, tp := range []float64{100, 110, 90, 100} {
		parent = append(parent, fakeRun("d", 0, "throughput_eps", tp, "latency_p50_us", 10.0, "allocs_per_event", 1.0))
		lat := []float64{8, 10, 12, 9}[i]
		head = append(head, fakeRun("d", 0, "throughput_eps", tp*1.5, "latency_p50_us", lat, "allocs_per_event", 1.0))
	}
	rows := summarizePairs(specs, parent, head)
	if len(rows) != 2 || rows[0].name != "throughput_eps" || rows[1].name != "latency_p50_us" {
		t.Fatalf("rows %+v, want the two time metrics", rows)
	}
	tp, lat := rows[0], rows[1]
	if tp.wins != 4 || tp.n != 4 || tp.ratio != [3]float64{1.5, 1.5, 1.5} || tp.p != 0.125 {
		t.Errorf("throughput row %+v", tp)
	}
	if tp.parent != [3]float64{97.5, 100, 102.5} || tp.head != [3]float64{146.25, 150, 153.75} {
		t.Errorf("throughput quartiles %v, %v; want [97.5 100 102.5], [146.25 150 153.75]", tp.parent, tp.head)
	}
	// Latency: 8 and 9 win, 10 ties, 12 loses: 2 of 3 signed pairs.
	if lat.wins != 2 || lat.ties != 1 || lat.p != 1 {
		t.Errorf("latency row %+v", lat)
	}
	var out bytes.Buffer
	reportPairs(&out, &contract{EndToEnd: specs}, "w", parent, head)
	for _, want := range []string{"| `throughput_eps` | 1/s | 100 [97.5–102.5] | 150 [146.2–153.8] | 4/4 | 1.500 [1.500–1.500] | 0.125 |", "identical in every run"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
