// Package bench is the measurement harness for the paper's evaluation
// (§5, Fig. 9) and this repository's ablations (DESIGN.md §4). It
// builds supply-chain workloads at a target primitive-event count and rule
// count, runs them through RCEDA (or the type-level ECA baseline), and
// reports total event processing time. Matching the paper's methodology,
// action cost (database updates, alarms) is NOT counted: detections are
// consumed by a no-op sink unless IncludeActions is set.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/core/shard"
	"rcep/internal/eca"
	"rcep/internal/pipeline"
	"rcep/internal/rules"
	"rcep/internal/sim"
	"rcep/internal/store"
)

// Workload is a prepared benchmark input.
type Workload struct {
	Name         string
	Observations []event.Observation
	Script       string
	RuleCount    int
	Groups       func(string) []string
	TypeOf       func(string) string
}

// ecaFamilies are the rule families the traditional baseline can express
// (no negation).
var ecaFamilies = []string{"dup", "loc", "pack"}

// Fig9Workload builds a supply-chain workload with approximately `events`
// primitive events and exactly `nrules` rules (cycling through the rule
// families across packing lines). negationFree restricts to families the
// ECA baseline supports.
func Fig9Workload(events, nrules int, seed int64, negationFree bool) *Workload {
	families := sim.AllFamilies()
	if negationFree {
		families = ecaFamilies
	}
	lines := (nrules + len(families) - 1) / len(families)
	if lines < 1 {
		lines = 1
	}
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Lines = lines
	cfg.DupProb = 0.05
	cfg.Badges = 2

	// Estimate observations per case to size CasesPerLine.
	perCase := cfg.ItemsPerCase + 1 + 3 + cfg.ShelfCycles*cfg.ItemsPerCase +
		int(cfg.SellFraction*float64(cfg.ItemsPerCase))
	perLineFixed := cfg.Badges * 2 // worst case: every laptop escorted
	casesPerLine := int(math.Ceil(float64(events-lines*perLineFixed) / float64(lines*perCase)))
	if casesPerLine < 1 {
		casesPerLine = 1
	}
	cfg.CasesPerLine = casesPerLine
	sc := sim.Generate(cfg)

	obs := sc.Observations
	if len(obs) > events && events > 0 {
		obs = obs[:events]
	}

	script := sim.RuleScript(lines, families)
	return &Workload{
		Name:         fmt.Sprintf("events=%d rules=%d", len(obs), nrules),
		Observations: obs,
		Script:       script,
		RuleCount:    nrules,
		Groups:       sc.ChainGroups(),
		TypeOf:       sc.Registry.TypeOf,
	}
}

// parseRules returns the workload's rule set, truncated to RuleCount (the
// generator emits whole per-line family blocks; the sweep wants an exact
// rule count).
func (w *Workload) parseRules() (*rules.RuleSet, error) {
	rs, err := rules.ParseScript(w.Script)
	if err != nil {
		return nil, err
	}
	if w.RuleCount > 0 && len(rs.Rules) > w.RuleCount {
		rs.Rules = rs.Rules[:w.RuleCount]
	}
	return rs, nil
}

// Options tune a run.
type Options struct {
	IncludeActions bool // run conditions and actions (excluded by default, as in the paper)
}

// Result is one measured run.
type Result struct {
	Events     int
	Rules      int
	Elapsed    time.Duration
	Detections uint64
	Metrics    detect.Metrics
}

// Throughput returns processed events per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Events) / r.Elapsed.Seconds()
}

// RunRCEDA measures one pass of the workload through the RCEDA engine;
// gopts configure the event-graph builder (graph.WithoutMerging for
// ablation A1).
func RunRCEDA(w *Workload, opts Options, gopts ...graph.Option) (Result, error) {
	rs, err := w.parseRules()
	if err != nil {
		return Result{}, err
	}
	b := graph.NewBuilder(gopts...)

	var detections uint64
	onDetect := func(int, *event.Instance) { detections++ }
	var x *rules.Executor
	if opts.IncludeActions {
		st := store.OpenRFID()
		x = rules.NewExecutor(rs, st, noopProcs(), nil)
		x.TraceFirings = false
		onDetectX := func(rid int, in *event.Instance) {
			detections++
			x.Dispatch(rid, in)
		}
		onDetect = onDetectX
	}
	if x == nil {
		x = rules.NewExecutor(rs, nil, nil, nil)
	}
	if err := x.Bind(b); err != nil {
		return Result{}, err
	}
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		Groups:   w.Groups,
		TypeOf:   w.TypeOf,
		OnDetect: onDetect,
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	for _, o := range w.Observations {
		if err := eng.Ingest(o); err != nil {
			return Result{}, err
		}
	}
	eng.Close()
	elapsed := time.Since(start)
	return Result{
		Events:     len(w.Observations),
		Rules:      len(rs.Rules),
		Elapsed:    elapsed,
		Detections: detections,
		Metrics:    eng.Metrics(),
	}, nil
}

// RunECA measures the type-level baseline on the workload. The workload
// must be negation-free.
func RunECA(w *Workload) (Result, error) {
	rs, err := w.parseRules()
	if err != nil {
		return Result{}, err
	}
	exprs := map[int]event.Expr{}
	for i, r := range rs.Rules {
		exprs[i] = r.Event
	}
	var detections uint64
	eng, err := eca.New(eca.Config{
		Rules:    exprs,
		Groups:   w.Groups,
		TypeOf:   w.TypeOf,
		OnDetect: func(int, *event.Instance) { detections++ },
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	for _, o := range w.Observations {
		if err := eng.Ingest(o); err != nil {
			return Result{}, err
		}
	}
	eng.Close()
	return Result{
		Events:     len(w.Observations),
		Rules:      len(rs.Rules),
		Elapsed:    time.Since(start),
		Detections: detections,
	}, nil
}

// RunPipelined measures the workload flowing through the concurrent
// Fig. 2 pipeline (source goroutine → dedup stage → engine goroutine) in
// ingestChunk-sized batches instead of direct single-threaded ingestion —
// the A4 ablation quantifying channel-stage overhead/benefit.
func RunPipelined(w *Workload, opts Options) (Result, error) {
	rs, err := w.parseRules()
	if err != nil {
		return Result{}, err
	}
	b := graph.NewBuilder()
	x := rules.NewExecutor(rs, nil, nil, nil)
	if err := x.Bind(b); err != nil {
		return Result{}, err
	}
	var detections uint64
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		Groups:   w.Groups,
		TypeOf:   w.TypeOf,
		OnDetect: func(int, *event.Instance) { detections++ },
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	err = pipeline.RunBatches(context.Background(), pipeline.BatchedConfig{
		Source: pipeline.BatchSliceSource(chunks(w.Observations)),
		Stages: []pipeline.StageFunc{pipeline.Dedup(time.Second)},
		Sink:   func(b event.Batch) error { return eng.IngestBatch(b) },
	})
	if err != nil {
		return Result{}, err
	}
	eng.Close()
	return Result{
		Events:     len(w.Observations),
		Rules:      len(rs.Rules),
		Elapsed:    time.Since(start),
		Detections: detections,
		Metrics:    eng.Metrics(),
	}, nil
}

// RunShardEngine measures the sharded detection engine (key-space rule
// partitioning + per-shard workers + routed fan-out, internal/core/shard)
// on the workload. The observation stream is fed through the router in
// batches; detections are counted at the merged fan-in, so the result is
// comparable with RunRCEDA.
func RunShardEngine(w *Workload, n int) (Result, error) {
	rs, err := w.parseRules()
	if err != nil {
		return Result{}, err
	}
	shRules := make([]shard.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		shRules[i] = shard.Rule{ID: i, Expr: r.Event}
	}
	var detections uint64
	eng, err := shard.New(shard.Config{
		Rules:    shRules,
		Shards:   n,
		Groups:   w.Groups,
		TypeOf:   w.TypeOf,
		OnDetect: func(int, *event.Instance) { detections++ },
	})
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	for _, b := range chunks(w.Observations) {
		if err := eng.IngestBatch(b); err != nil {
			return Result{}, err
		}
	}
	eng.Close()
	elapsed := time.Since(start)
	if err := eng.Err(); err != nil {
		return Result{}, err
	}
	return Result{
		Events:     len(w.Observations),
		Rules:      len(rs.Rules),
		Elapsed:    elapsed,
		Detections: detections,
		Metrics:    eng.Metrics(),
	}, nil
}

// ingestChunk is the read-cycle batch size every batched driver
// (RunPipelined, RunShardEngine) feeds at.
const ingestChunk = 256

// chunks splits a stream into ingestChunk-sized batches (the last may be
// short); the batches alias obs.
func chunks(obs []event.Observation) [][]event.Observation {
	var out [][]event.Observation
	for len(obs) > 0 {
		n := min(ingestChunk, len(obs))
		out = append(out, obs[:n])
		obs = obs[n:]
	}
	return out
}

func noopProcs() rules.Procs {
	noop := func(rules.ActionContext, []event.Value) error { return nil }
	return rules.Procs{
		"send_alarm":     noop,
		"mark_duplicate": noop,
	}
}

// Point is one measurement of a series.
type Point struct {
	X int
	Y Result
}

// Series is a labelled sweep.
type Series struct {
	Label  string
	XName  string
	Points []Point
}

// PrintTable renders the series like the paper's figure data: one row per
// sweep point.
func (s Series) PrintTable(w io.Writer) {
	fmt.Fprintf(w, "%s\n", s.Label)
	fmt.Fprintf(w, "%12s %18s %14s %12s\n", s.XName, "total time (ms)", "events/sec", "detections")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%12d %18.1f %14.0f %12d\n",
			p.X, float64(p.Y.Elapsed.Microseconds())/1000.0, p.Y.Throughput(), p.Y.Detections)
	}
}

// SweepEvents measures total processing time vs. number of primitive
// events at a fixed rule count (Fig. 9's first series).
func SweepEvents(counts []int, nrules int, seed int64) (Series, error) {
	s := Series{Label: fmt.Sprintf("Fig 9a: time vs #events (rules=%d)", nrules), XName: "#events"}
	for _, n := range counts {
		w := Fig9Workload(n, nrules, seed, false)
		r, err := RunRCEDA(w, Options{})
		if err != nil {
			return s, fmt.Errorf("bench: events=%d: %w", n, err)
		}
		s.Points = append(s.Points, Point{X: r.Events, Y: r})
	}
	return s, nil
}

// SweepRules measures total processing time vs. number of rules at a fixed
// event count (Fig. 9's second series).
func SweepRules(counts []int, events int, seed int64) (Series, error) {
	s := Series{Label: fmt.Sprintf("Fig 9b: time vs #rules (events=%d)", events), XName: "#rules"}
	for _, n := range counts {
		w := Fig9Workload(events, n, seed, false)
		r, err := RunRCEDA(w, Options{})
		if err != nil {
			return s, fmt.Errorf("bench: rules=%d: %w", n, err)
		}
		s.Points = append(s.Points, Point{X: n, Y: r})
	}
	return s, nil
}
