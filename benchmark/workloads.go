package main

import (
	"fmt"
	"runtime"
	"time"

	"rcep"
	"rcep/internal/core/event"
	"rcep/internal/sim"
)

// chunkSize is the ingest-call granule of the in-process workloads, the
// read-cycle batch size BENCH_hotpath.json's batched series used.
const chunkSize = 256

// dedupWindow is the pipeline's duplicate filter on the path workloads.
// The simulator's duplicate reads trail by 200 ms, so they survive it and
// the dup rules still fire; the stage is there for its cost.
const dedupWindow = 100 * time.Millisecond

// passResult is what one pass on a fresh engine reports.
type passResult struct {
	obs       int       // observations fed in the timed section
	m         meter     // wall, allocations, CPU, retained heap
	lat       []float64 // µs: the workload's unit-of-work latencies
	det       digest    // detection stream of the pass
	attempted uint64    // observations + queries + expected detections
	failed    uint64    // see README "failed"
	path      pathStats // generator health and transport counters (path workloads)
}

// runner is one set-up workload: inputs generated, reference computed.
type runner interface {
	// pass runs the workload once on a fresh engine; rec is nil when
	// tracing is off.
	pass(rec *recorder) (*passResult, error)
	// warmup runs the path once, unmeasured, so caches and pools are warm.
	warmup() error
	// once reports that a run is a single pass as long as -seconds (the
	// open-loop workload); closed-loop workloads repeat passes instead.
	once() bool
	// layers takes the per-layer measurements of the traced run, given
	// the untraced and the traced pass that preceded it.
	layers(rec *recorder, plain, traced *passResult, out map[string]float64) error
	// want is the reference detection stream.
	want() digest
}

// workload names are stable: BENCHMARK.json, README.md and later issues
// cite them.
type workload struct {
	name  string
	setup func(seed int64, div int, seconds float64) (runner, error)
}

// workloads lists every workload; div scales stream sizes down for the
// package's own tests (1 in a real run).
var workloads = []workload{
	{"detect_only", func(seed int64, div int, _ float64) (runner, error) {
		return setupDetectOnly(seed, streamSpec{lines: 80, obs: 100000 / div, families: sim.AllFamilies()})
	}},
	{"actions", func(seed int64, div int, _ float64) (runner, error) {
		return setupFacade(seed, streamSpec{lines: 20, obs: 20000 / div, families: sim.AllFamilies()}, false)
	}},
	{"query_mix", func(seed int64, div int, _ float64) (runner, error) {
		return setupFacade(seed, streamSpec{lines: 20, obs: 20000 / div, families: sim.AllFamilies()}, true)
	}},
	{"path_saturate", func(seed int64, div int, _ float64) (runner, error) {
		return setupPath(seed, streamSpec{lines: 80, obs: 100000 / div, families: pathFamilies}, 0, div, perFrame)
	}},
	{"path_bulk_saturate", func(seed int64, div int, _ float64) (runner, error) {
		return setupPath(seed, streamSpec{lines: 1, obs: 100000 / div, families: pathFamilies,
			itemsPerCase: 48, shelfCycles: 20}, 0, div, perTag)
	}},
	{"path_paced_1k", func(seed int64, div int, seconds float64) (runner, error) {
		// path_saturate's stream, cut to what the paced run sends.
		n := int(pacedRate * seconds)
		return setupPath(seed, streamSpec{lines: 80, obs: 100000 / div, families: pathFamilies}, n, div, perFrame)
	}},
}

// The two report sizes the path workloads exist to tell apart, as bounds
// [at least, below) on a stream's mean tags per report. setupPath refuses a
// stream outside its bounds: a simulator change that turned the bulk stream
// into a second per-frame stream would otherwise stay "correct".
var (
	perFrame = [2]float64{1, 2}                     // per-frame cost dominates
	perTag   = [2]float64{16, maxTagsPerReport + 1} // per-frame cost amortizes
)

// pathFamilies are the rule families of the path workloads: two procedure
// calls and one INSERT that reads nothing, so the store does little and
// the transport layers dominate.
var pathFamilies = []string{"dup", "shelf", "asset"}

// ---- detect_only ---------------------------------------------------------

// detectOnly feeds the Fig. 9b stream to a bare detect.Engine: detection
// does all the work; rules, store and transport do none.
type detectOnly struct {
	in     *inputs
	chunks [][]event.Observation
	ref    digest
}

func setupDetectOnly(seed int64, spec streamSpec) (runner, error) {
	in, err := genStream(seed, spec)
	if err != nil {
		return nil, err
	}
	ref, _, err := reference(in, 0)
	if err != nil {
		return nil, err
	}
	return &detectOnly{in: in, chunks: chunks(in.obs, chunkSize), ref: ref}, nil
}

func (w *detectOnly) want() digest { return w.ref }
func (w *detectOnly) once() bool   { return false }
func (w *detectOnly) warmup() error {
	_, err := w.pass(nil)
	return err
}

func (w *detectOnly) pass(rec *recorder) (*passResult, error) {
	res := &passResult{obs: len(w.in.obs), lat: make([]float64, 0, len(w.chunks))}
	res.m.baseline()
	eng, err := bareEngine(w.in, func(rule int, inst *event.Instance) {
		res.det.fold(rule, int64(inst.Begin), int64(inst.End))
	})
	if err != nil {
		return nil, err
	}
	res.m.start()
	for _, c := range w.chunks {
		t := time.Now()
		s := rec.begin("detect.IngestBatch", -1, laneMain)
		err := eng.IngestBatch(c)
		rec.end(s)
		res.lat = append(res.lat, micros(time.Since(t)))
		if err != nil {
			res.failed += uint64(len(c))
		}
	}
	s := rec.begin("detect.AdvanceTo", -1, laneMain)
	err = eng.AdvanceTo(w.in.horizon)
	rec.end(s)
	if err != nil {
		res.failed++
	}
	res.m.stop()
	res.m.retain()
	runtime.KeepAlive(eng)
	res.attempted = uint64(res.obs) + w.ref.count
	res.failed += res.det.diff(w.ref)
	return res, nil
}

// ---- actions and query_mix ------------------------------------------------

// facadeRun drives the rcep.Engine facade in its default configuration
// with conditions, SQL actions and procedures live. With queries it is
// query_mix: the first half of the stream preloads the store untimed, and
// reads interleave with the second half's writes.
type facadeRun struct {
	in      *inputs
	ref     digest
	ruleIdx map[string]int
	preload [][]event.Observation
	timed   [][]event.Observation
	nTimed  int
	queries []query
	// rowsSeen is the total row count the first pass's queries returned;
	// every later pass must read the same.
	rowsSeen uint64
	havePass bool
}

func setupFacade(seed int64, spec streamSpec, withQueries bool) (runner, error) {
	in, err := genStream(seed, spec)
	if err != nil {
		return nil, err
	}
	ref, _, err := reference(in, 0)
	if err != nil {
		return nil, err
	}
	w := &facadeRun{in: in, ref: ref}
	if w.ruleIdx, err = ruleIndex(in.script); err != nil {
		return nil, err
	}
	split := 0
	if withQueries {
		split = len(in.obs) / 2
		w.queries = genQueries(seed, in.obs, split, chunkSize)
	}
	w.preload = chunks(in.obs[:split], chunkSize)
	w.timed = chunks(in.obs[split:], chunkSize)
	w.nTimed = len(in.obs) - split
	return w, nil
}

func (w *facadeRun) want() digest { return w.ref }
func (w *facadeRun) once() bool   { return false }
func (w *facadeRun) warmup() error {
	_, err := w.pass(nil)
	return err
}

// newEngine builds the facade engine the way an application would.
func (w *facadeRun) newEngine(det *digest) (*rcep.Engine, error) {
	eng, err := rcep.New(rcep.Config{
		Rules:  w.in.script,
		Groups: w.in.groups,
		TypeOf: w.in.typeOf,
		OnDetection: func(d rcep.Detection) {
			det.fold(w.ruleIdx[d.RuleID], int64(d.Begin), int64(d.End))
		},
	})
	if err != nil {
		return nil, err
	}
	registerProcs(eng)
	return eng, nil
}

// registerProcs installs the procedures the dup and asset families call;
// the engine evaluates their arguments and calls them, they do nothing.
func registerProcs(eng *rcep.Engine) {
	noop := func(rcep.ProcContext, []any) error { return nil }
	eng.RegisterProcedure("mark_duplicate", noop)
	eng.RegisterProcedure("send_alarm", noop)
}

func (w *facadeRun) pass(rec *recorder) (*passResult, error) {
	res := &passResult{obs: w.nTimed}
	if w.queries != nil {
		res.lat = make([]float64, 0, len(w.queries))
	} else {
		res.lat = make([]float64, 0, len(w.timed))
	}
	res.m.baseline()
	eng, err := w.newEngine(&res.det)
	if err != nil {
		return nil, err
	}
	for _, c := range w.preload {
		if err := eng.IngestEvents(c); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	var rows uint64
	next := 0
	res.m.start()
	for _, c := range w.timed {
		t := time.Now()
		s := rec.begin("rcep.IngestEvents", -1, laneMain)
		err := eng.IngestEvents(c)
		rec.end(s)
		if w.queries == nil {
			res.lat = append(res.lat, micros(time.Since(t)))
		}
		if err != nil {
			res.failed += uint64(len(c))
		}
		for i := 0; i < queriesPerChunk && next < len(w.queries); i++ {
			q := w.queries[next]
			next++
			t := time.Now()
			s := rec.begin(querySpans[q.kind], -1, laneMain)
			n, err := runQuery(eng, q)
			rec.end(s)
			res.lat = append(res.lat, micros(time.Since(t)))
			rows += uint64(n)
			if err != nil {
				res.failed++
			}
		}
	}
	s := rec.begin("rcep.AdvanceTo", -1, laneMain)
	err = eng.AdvanceTo(time.Duration(w.in.horizon))
	rec.end(s)
	if err != nil {
		res.failed++
	}
	res.m.stop()
	res.m.retain()
	res.failed += uint64(len(eng.Errs()))
	runtime.KeepAlive(eng)
	if !w.havePass {
		w.rowsSeen, w.havePass = rows, true
	} else if rows != w.rowsSeen {
		res.failed++
	}
	res.attempted = uint64(res.obs) + uint64(next) + w.ref.count
	res.failed += res.det.diff(w.ref)
	return res, nil
}

// querySpans names the span around each kind of read.
var querySpans = [...]string{
	qProbe: "rcep.Query.probe", qScan: "rcep.Query.scan", qGroup: "rcep.Query.group",
	qTrace: "rcep.Trace", qLocate: "rcep.LocateAt",
}

// runQuery issues one generated read and returns how many rows (or stays)
// came back.
func runQuery(eng *rcep.Engine, q query) (int, error) {
	switch q.kind {
	case qTrace:
		stays, err := eng.Trace(q.object)
		return len(stays), err
	case qLocate:
		if _, ok := eng.LocateAt(q.object, q.at); ok {
			return 1, nil
		}
		return 0, nil
	}
	_, rows, err := eng.Query(q.sql)
	return len(rows), err
}
