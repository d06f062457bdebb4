package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strconv"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/core/shard"
	"rcep/internal/rules"
)

// Hot-path regression harness (DESIGN.md §9): the same supply-chain
// workload runs through the interpreted oracle and the compiled plans at
// each shard count. Every run folds its detection stream — (rule, begin,
// end, bindings) in delivery order — into an order-sensitive hash, so the
// report itself witnesses that the two paths produced byte-identical
// streams; the sweep fails loudly when they diverge.

// HotpathRun is one measured (mode, shard count) cell. AllocsPerEv is the
// end-to-end number — everything the run allocated per observation,
// harness hash fold included. EngineAllocsPerEv is a second pass over the
// same workload with a count-only detection callback, isolating what the
// engine and merge layers themselves allocate; the gap between the two is
// the harness's own overhead, reported so the alloc accounting reconciles
// with detect's per-layer budget suite.
type HotpathRun struct {
	ElapsedNS         int64   `json:"elapsed_ns"`
	EPS               float64 `json:"throughput_eps"`
	Detections        uint64  `json:"detections"`
	AllocsPerEv       float64 `json:"allocs_per_event"`
	EngineAllocsPerEv float64 `json:"engine_allocs_per_event,omitempty"`
	StreamHash        string  `json:"stream_hash"`
}

// HotpathPoint compares the paths at one shard count: the interpreted
// oracle, the compiled per-observation path, and the compiled path fed
// through IngestBatch in read-cycle-sized batches (DESIGN.md §12).
type HotpathPoint struct {
	Shards         int        `json:"shards"`
	Workers        int        `json:"workers"`
	Interpreted    HotpathRun `json:"interpreted"`
	Compiled       HotpathRun `json:"compiled"`
	Batched        HotpathRun `json:"batched_compiled"`
	Speedup        float64    `json:"speedup_compiled_vs_interpreted"`
	SpeedupBatched float64    `json:"speedup_batched_vs_interpreted"`
}

// HotpathReport is the BENCH_hotpath.json schema.
type HotpathReport struct {
	Workload string         `json:"workload"`
	Events   int            `json:"events"`
	Rules    int            `json:"rules"`
	Points   []HotpathPoint `json:"points"`
}

// hotpathMode selects which ingest path a cell measures.
type hotpathMode int

const (
	modeInterpreted hotpathMode = iota // per-observation, interpreted plans
	modeCompiled                       // per-observation, compiled plans
	modeBatched                        // IngestBatch in read-cycle chunks, compiled plans
)

// hotpathEngine builds the engine for one cell and returns its ingest
// and close hooks. shards ≤ 1 runs the single detect engine; larger
// counts run the sharded engine with routed batches.
func hotpathEngine(w *Workload, shards int, mode hotpathMode, onDetect func(int, *event.Instance)) (ingest func() error, closeEng func() error, workers int, err error) {
	rs, err := w.parseRules()
	if err != nil {
		return nil, nil, 0, err
	}
	interpreted := mode == modeInterpreted
	if shards <= 1 {
		b := graph.NewBuilder()
		x := rules.NewExecutor(rs, nil, nil, nil)
		if err := x.Bind(b); err != nil {
			return nil, nil, 0, err
		}
		eng, err := detect.New(detect.Config{
			Graph:       b.Finalize(),
			Groups:      w.Groups,
			TypeOf:      w.TypeOf,
			OnDetect:    onDetect,
			Interpreted: interpreted,
		})
		if err != nil {
			return nil, nil, 0, err
		}
		if mode == modeBatched {
			batches := chunks(w.Observations)
			ingest = func() error {
				for _, b := range batches {
					if err := eng.IngestBatch(b); err != nil {
						return err
					}
				}
				return nil
			}
		} else {
			ingest = func() error {
				for _, o := range w.Observations {
					if err := eng.Ingest(o); err != nil {
						return err
					}
				}
				return nil
			}
		}
		closeEng = func() error { eng.Close(); return nil }
		return ingest, closeEng, 1, nil
	}
	shRules := make([]shard.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		shRules[i] = shard.Rule{ID: i, Expr: r.Event}
	}
	eng, err := shard.New(shard.Config{
		Rules:       shRules,
		Shards:      shards,
		Groups:      w.Groups,
		TypeOf:      w.TypeOf,
		OnDetect:    onDetect,
		Interpreted: interpreted,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	batches := chunks(w.Observations)
	ingest = func() error {
		for _, b := range batches {
			if err := eng.IngestBatch(b); err != nil {
				return err
			}
		}
		return nil
	}
	closeEng = func() error {
		eng.Close()
		return eng.Err()
	}
	return ingest, closeEng, eng.Shards(), nil
}

// hotpathRun measures one cell: an end-to-end pass folding every
// detection into the stream hash (allocation-free — the fold appends
// into a reused buffer, so AllocsPerEv is the engine-plus-merge cost,
// not fmt's), then a count-only pass isolating the engine's own
// allocations for the reconciliation column.
func hotpathRun(w *Workload, shards int, mode hotpathMode) (HotpathRun, int, error) {
	h := fnv.New64a()
	var detections uint64
	foldBuf := make([]byte, 0, 256)
	onDetect := func(rid int, inst *event.Instance) {
		detections++
		b := foldBuf[:0]
		b = strconv.AppendInt(b, int64(rid), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(inst.Begin), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(inst.End), 10)
		b = append(b, '|')
		b = inst.Binds.AppendText(b)
		b = append(b, '\n')
		h.Write(b)
		foldBuf = b
	}
	ingest, closeEng, workers, err := hotpathEngine(w, shards, mode, onDetect)
	if err != nil {
		return HotpathRun{}, 0, err
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := ingest(); err != nil {
		return HotpathRun{}, 0, err
	}
	closeErr := closeEng()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if closeErr != nil {
		return HotpathRun{}, 0, closeErr
	}

	run := HotpathRun{
		ElapsedNS:  elapsed.Nanoseconds(),
		Detections: detections,
		StreamHash: fmt.Sprintf("%016x", h.Sum64()),
	}
	if n := len(w.Observations); n > 0 {
		run.EPS = float64(n) / elapsed.Seconds()
		run.AllocsPerEv = float64(after.Mallocs-before.Mallocs) / float64(n)
	}

	// Engine-only pass: same workload, same plans, a callback that does
	// nothing but count. Skipped for the interpreted oracle — its alloc
	// column is the baseline being escaped, not a budget under watch.
	if mode != modeInterpreted && len(w.Observations) > 0 {
		var n2 uint64
		ingest2, close2, _, err := hotpathEngine(w, shards, mode, func(int, *event.Instance) { n2++ })
		if err != nil {
			return HotpathRun{}, 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := ingest2(); err != nil {
			return HotpathRun{}, 0, err
		}
		if err := close2(); err != nil {
			return HotpathRun{}, 0, err
		}
		runtime.ReadMemStats(&after)
		run.EngineAllocsPerEv = float64(after.Mallocs-before.Mallocs) / float64(len(w.Observations))
	}
	return run, workers, nil
}

// SweepHotpath runs interpreted vs compiled at each shard count on one
// supply-chain workload and returns the comparison report. It errors when
// any cell's detection stream diverges from its interpreted oracle — the
// report is a regression gate, not just a scoreboard.
func SweepHotpath(shardCounts []int, events, nrules int, seed int64) (*HotpathReport, error) {
	w := Fig9Workload(events, nrules, seed, false)
	rs, err := w.parseRules()
	if err != nil {
		return nil, err
	}
	rep := &HotpathReport{Workload: w.Name, Events: len(w.Observations), Rules: len(rs.Rules)}
	for _, n := range shardCounts {
		interp, _, err := hotpathRun(w, n, modeInterpreted)
		if err != nil {
			return nil, fmt.Errorf("bench: hotpath interpreted shards=%d: %w", n, err)
		}
		comp, workers, err := hotpathRun(w, n, modeCompiled)
		if err != nil {
			return nil, fmt.Errorf("bench: hotpath compiled shards=%d: %w", n, err)
		}
		if comp.StreamHash != interp.StreamHash || comp.Detections != interp.Detections {
			return nil, fmt.Errorf(
				"bench: hotpath shards=%d: compiled stream diverges from interpreted oracle (%d dets %s vs %d dets %s)",
				n, comp.Detections, comp.StreamHash, interp.Detections, interp.StreamHash)
		}
		batched, _, err := hotpathRun(w, n, modeBatched)
		if err != nil {
			return nil, fmt.Errorf("bench: hotpath batched shards=%d: %w", n, err)
		}
		if batched.StreamHash != interp.StreamHash || batched.Detections != interp.Detections {
			return nil, fmt.Errorf(
				"bench: hotpath shards=%d: batched stream diverges from interpreted oracle (%d dets %s vs %d dets %s)",
				n, batched.Detections, batched.StreamHash, interp.Detections, interp.StreamHash)
		}
		pt := HotpathPoint{Shards: n, Workers: workers, Interpreted: interp, Compiled: comp, Batched: batched}
		if comp.ElapsedNS > 0 {
			pt.Speedup = float64(interp.ElapsedNS) / float64(comp.ElapsedNS)
		}
		if batched.ElapsedNS > 0 {
			pt.SpeedupBatched = float64(interp.ElapsedNS) / float64(batched.ElapsedNS)
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// WriteJSON writes the report in the BENCH_hotpath.json schema.
func (r *HotpathReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintTable renders the report for terminals.
func (r *HotpathReport) PrintTable(w io.Writer) {
	fmt.Fprintf(w, "hot path: %s (%d events, %d rules)\n", r.Workload, r.Events, r.Rules)
	fmt.Fprintf(w, "%8s %8s %14s %14s %14s %9s %12s %12s %10s\n",
		"shards", "workers", "interp eps", "compiled eps", "batched eps", "speedup", "comp a/ev", "eng a/ev", "dets")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %8d %14.0f %14.0f %14.0f %8.2fx %12.2f %12.2f %10d\n",
			p.Shards, p.Workers, p.Interpreted.EPS, p.Compiled.EPS, p.Batched.EPS, p.SpeedupBatched,
			p.Batched.AllocsPerEv, p.Batched.EngineAllocsPerEv, p.Compiled.Detections)
	}
}
