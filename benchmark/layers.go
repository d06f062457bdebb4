package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/core/shard"
	"rcep/internal/rules"
	"rcep/internal/sqlmini"
	"rcep/internal/store"
)

// Per-layer metrics, all taken from outside the layers: spans around calls
// into their public functions, prefix cuts of the path, and the counters
// the layers already export. A layer a workload does not touch reports 0.
var perLayer = []metricDef{
	{"llrp.ns_per_event", "ns"},
	{"llrp.allocs_per_event", "allocs/ev"},
	{"llrp.tags_per_report", "tags/report"},
	{"pipeline.ns_per_event", "ns"},
	{"pipeline.allocs_per_event", "allocs/ev"},
	{"pipeline.batches", "count"},
	{"pipeline.dropped", "count"},
	{"wire.ns_per_event", "ns"},
	{"wire.allocs_per_event", "allocs/ev"},
	{"wire.bytes_per_event", "B/ev"},
	{"wire.bytes_per_detection", "B/det"},
	{"wire.frames", "count"},
	{"wire.send_us_per_frame", "us"},
	{"wire.unacked_max", "frames"},
	{"wire.queue_depth_max", "frames"},
	{"wire.shed", "count"},
	{"wire.reconnects", "count"},
	{"rcep.ns_per_event", "ns"},
	{"shard.ns_per_event", "ns"},
	{"shard.throughput_eps", "1/s"},
	{"shard.overhead_ratio", "ratio"},
	{"shard.fanout", "ratio"},
	{"shard.skew", "ratio"},
	{"detect.ns_per_event", "ns"},
	{"detect.allocs_per_event", "allocs/ev"},
	{"detect.prim_matches_per_event", "1/ev"},
	{"detect.emitted_per_event", "1/ev"},
	{"detect.pseudo_per_event", "1/ev"},
	{"detect.detections_per_event", "1/ev"},
	{"detect.dropped", "count"},
	{"detect.checkpoint_ms", "ms"},
	{"detect.checkpoint_bytes", "B"},
	{"rules.dispatch_us_per_detection", "us"},
	{"rules.firings", "count"},
	{"rules.action_errors", "count"},
	{"sqlmini.update_uc_us", "us"},
	{"sqlmini.insert_us", "us"},
	{"sqlmini.bulk_insert_us", "us"},
	{"sqlmini.select_probe_us", "us"},
	{"sqlmini.select_scan_us", "us"},
	{"store.insert_us", "us"},
	{"store.lookup_us", "us"},
	{"store.update_us", "us"},
	{"store.rows", "count"},
	{"store.snapshot_ms", "ms"},
	{"store.snapshot_bytes", "B"},
	{"store.wal_bytes_per_mutation", "B"},
	{"store.wal_entries", "count"},
	{"gen.late_p99_us", "us"},
	{"gen.backlog_end", "frames"},
	{"gen.latency_p90_us", "us"},
	{"gen.latency_p99_us", "us"},
	{"gen.latency_max_us", "us"},
	{"gen.trace_overhead_share", "ratio"},
}

// tracePairs is how many untraced/traced pass pairs a closed-loop traced
// run makes; span times are means over the traced passes, the tracing
// overhead compares the medians of the two kinds.
const tracePairs = 3

// measureLayers is the traced run: pairs of an untraced pass and the same
// pass with the span recorder on, then the workload's layer probes. Spans
// are written out when everything has run.
func measureLayers(w workload, r runner) (*result, error) {
	pairs := tracePairs
	if r.once() {
		pairs = 1
	}
	rec := newRecorder()
	res := &result{Metrics: metrics{}}
	var plain, traced *passResult
	var plainCPU, tracedCPU, lat []float64
	for i := 0; i < pairs; i++ {
		var err error
		if plain, err = r.pass(nil); err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		rec.pass++
		if traced, err = r.pass(rec); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		plainCPU = append(plainCPU, plain.m.cpuUsed.Seconds())
		lat = append(lat, plain.lat...)
		tracedCPU = append(tracedCPU, traced.m.cpuUsed.Seconds())
		res.Attempted += plain.attempted + traced.attempted
		res.Failed += plain.failed + traced.failed
	}
	out := map[string]float64{}
	// CPU time, so the share means the same on the paced run, whose wall
	// time the schedule fixes.
	out["gen.trace_overhead_share"] = median(tracedCPU)/median(plainCPU) - 1
	// The tail of the workload's unit-of-work latency over the untraced
	// passes: reported, not gated — it does not repeat within any bound
	// the contract allows (README, "What is not gated").
	out["gen.latency_p90_us"] = percentile(lat, 0.90)
	out["gen.latency_p99_us"] = percentile(lat, 0.99)
	out["gen.latency_max_us"] = maxOf(lat)
	rec.tracedPasses = rec.pass
	rec.pass++
	if err := r.layers(rec, plain, traced, out); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	path, err := rec.write(traceDir, w.name)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", w.name, len(rec.spans), path)
	res.Correct = res.Failed == 0
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{out[d.name], d.unit}
	}
	return res, nil
}

func perEvent(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// detectCounters reports the counters detect already exports, per event.
func detectCounters(out map[string]float64, m detect.Metrics, nobs int) {
	n := float64(nobs)
	out["detect.prim_matches_per_event"] = float64(m.PrimMatches) / n
	out["detect.emitted_per_event"] = float64(m.Emitted) / n
	out["detect.pseudo_per_event"] = float64(m.PseudoFired) / n
	out["detect.detections_per_event"] = float64(m.Detections) / n
	out["detect.dropped"] = float64(m.Dropped)
}

// ---- detect_only: detect and shard ------------------------------------------

const shardWidth = 2 // fixed, so the number means the same on every host

func (w *detectOnly) layers(rec *recorder, plain, traced *passResult, out map[string]float64) error {
	nobs := len(w.in.obs)
	spans := rec.byName()
	detectNS := perEvent(spans["detect.IngestBatch"].self+spans["detect.AdvanceTo"].self, nobs*rec.tracedPasses)
	out["detect.ns_per_event"] = detectNS
	out["detect.allocs_per_event"] = float64(plain.m.allocs) / float64(nobs)

	// Counters and checkpoint cost, on an engine that has seen the stream.
	eng, err := bareEngine(w.in, func(int, *event.Instance) {})
	if err != nil {
		return err
	}
	for _, c := range w.chunks {
		if err := eng.IngestBatch(c); err != nil {
			return err
		}
	}
	var ck bytes.Buffer
	us, err := timeCalls(rec, "detect.SaveCheckpoint", 1, func(int) error { return eng.SaveCheckpoint(&ck) })
	if err != nil {
		return err
	}
	out["detect.checkpoint_ms"] = us / 1e3
	out["detect.checkpoint_bytes"] = float64(ck.Len())
	if err := eng.AdvanceTo(w.in.horizon); err != nil {
		return err
	}
	detectCounters(out, eng.Metrics(), nobs)

	// The same stream through shard.Engine at a fixed width.
	rs, err := rules.ParseScript(w.in.script)
	if err != nil {
		return err
	}
	shRules := make([]shard.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		shRules[i] = shard.Rule{ID: i, Expr: r.Event}
	}
	var d digest
	sh, err := shard.New(shard.Config{
		Rules: shRules, Shards: shardWidth, Groups: w.in.groups, TypeOf: w.in.typeOf,
		OnDetect: func(rule int, inst *event.Instance) { d.fold(rule, int64(inst.Begin), int64(inst.End)) },
	})
	if err != nil {
		return err
	}
	defer sh.Close()
	var m meter
	m.start()
	for _, c := range w.chunks {
		s := rec.begin("shard.IngestBatch", -1, laneMain)
		err := sh.IngestBatch(c)
		rec.end(s)
		if err != nil {
			return err
		}
	}
	s := rec.begin("shard.AdvanceTo+Sync", -1, laneMain)
	err = sh.AdvanceTo(w.in.horizon)
	if err == nil {
		err = sh.Sync()
	}
	rec.end(s)
	m.stop()
	if err != nil {
		return err
	}
	if d.diff(w.ref) != 0 {
		return fmt.Errorf("sharded detections %s differ from reference %s", d, w.ref)
	}
	// CPU time, not wall: the router and the shard workers overlap.
	shardNS := perEvent(m.cpuUsed, nobs)
	out["shard.ns_per_event"] = shardNS
	out["shard.throughput_eps"] = float64(nobs) / m.wall.Seconds()
	out["shard.overhead_ratio"] = shardNS / detectNS
	var routed, busiest uint64
	per := sh.ShardMetrics()
	for _, sm := range per {
		routed += sm.Observations
		if sm.Observations > busiest {
			busiest = sm.Observations
		}
	}
	out["shard.fanout"] = float64(routed) / float64(nobs)
	out["shard.skew"] = float64(busiest) * float64(len(per)) / float64(routed)
	return nil
}

// ---- actions, query_mix: detect, rules, sqlmini, store ----------------------

const (
	bindSamples = 256 // detections per rule family whose bindings are kept
	stmtRepeats = 200 // executions per timed statement
	scanRepeats = 40  // … per statement that scans a table
)

func (w *facadeRun) layers(rec *recorder, _, _ *passResult, out map[string]float64) error {
	nobs := len(w.in.obs)
	// A bench-built detect + rules + store engine, so the benchmark can put
	// a span around Executor.Dispatch: inside the facade that call is out
	// of reach.
	rs, err := rules.ParseScript(w.in.script)
	if err != nil {
		return err
	}
	st := store.OpenRFID()
	noop := func(rules.ActionContext, []event.Value) error { return nil }
	x := rules.NewExecutor(rs, st, rules.Procs{"mark_duplicate": noop, "send_alarm": noop}, nil)
	b := graph.NewBuilder()
	if err := x.Bind(b); err != nil {
		return err
	}
	samples := map[string][]event.Bindings{}
	parent := -1
	eng, err := detect.New(detect.Config{
		Graph: b.Finalize(), Groups: w.in.groups, TypeOf: w.in.typeOf,
		OnDetect: func(rule int, inst *event.Instance) {
			fam := family(rs.Rules[rule].ID)
			if len(samples[fam]) < bindSamples {
				samples[fam] = append(samples[fam], inst.Binds.Clone())
			}
			s := rec.begin("rules.Dispatch", parent, laneMain)
			x.Dispatch(rule, inst)
			rec.end(s)
		},
	})
	if err != nil {
		return err
	}
	for _, c := range chunks(w.in.obs, chunkSize) {
		parent = rec.begin("detect.IngestBatch", -1, laneMain)
		err := eng.IngestBatch(c)
		rec.end(parent)
		if err != nil {
			return err
		}
	}
	parent = rec.begin("detect.AdvanceTo", -1, laneMain)
	err = eng.AdvanceTo(w.in.horizon)
	rec.end(parent)
	if err != nil {
		return err
	}
	spans := rec.byName()
	out["detect.ns_per_event"] = perEvent(spans["detect.IngestBatch"].self+spans["detect.AdvanceTo"].self, nobs)
	detectCounters(out, eng.Metrics(), nobs)
	if d := spans["rules.Dispatch"]; d.count > 0 {
		out["rules.dispatch_us_per_detection"] = micros(d.total) / float64(d.count)
	}
	out["rules.firings"] = float64(len(x.Firings()))
	out["rules.action_errors"] = float64(len(x.Errors()))

	if err := storeProbes(rec, st, out); err != nil {
		return err
	}
	return sqlProbes(rec, rs, st, samples, out)
}

// family is the rule family of a generated rule ID ("loc_12" → "loc").
func family(ruleID string) string {
	if i := strings.IndexByte(ruleID, '_'); i >= 0 {
		return ruleID[:i]
	}
	return ruleID
}

// timeCalls runs fn n times, each under a span of the given name, and
// returns the mean microseconds per call.
func timeCalls(rec *recorder, name string, n int, fn func(i int) error) (float64, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		s := rec.begin(name, -1, laneMain)
		err := fn(i)
		rec.end(s)
		total += time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return micros(total) / float64(n), nil
}

// sqlProbes times the rule families' own statements, prepared as the
// executor prepares them, with bindings sampled from the run, against the
// store the run left behind. Reads go first: the writes change the store.
func sqlProbes(rec *recorder, rs *rules.RuleSet, st *store.Store, samples map[string][]event.Bindings, out map[string]float64) error {
	action := func(ruleID string, i int) (*sqlmini.PreparedStmt, error) {
		r, ok := rs.Rule(ruleID)
		if !ok || i >= len(r.Actions) {
			return nil, fmt.Errorf("rule %s has no action %d", ruleID, i)
		}
		a, ok := r.Actions[i].(*rules.SQLAction)
		if !ok {
			return nil, fmt.Errorf("rule %s action %d is not SQL", ruleID, i)
		}
		return sqlmini.PrepareStmt(a.Stmt), nil
	}
	loc, pack := samples["loc"], samples["pack"]
	if len(loc) == 0 || len(pack) == 0 {
		return fmt.Errorf("no loc/pack detections to sample bindings from")
	}
	selects := []struct {
		metric, sql string
		binds       []event.Bindings
		n           int
	}{
		{"sqlmini.select_probe_us", "SELECT loc_id, tstart, tend FROM OBJECTLOCATION WHERE object_epc = o", loc, stmtRepeats},
		{"sqlmini.select_scan_us", "SELECT object_epc FROM OBJECTCONTAINMENT WHERE parent_epc = o2", pack, scanRepeats},
	}
	for _, q := range selects {
		stmt, err := sqlmini.Parse(q.sql)
		if err != nil {
			return err
		}
		p := sqlmini.PrepareStmt(stmt)
		us, err := timeCalls(rec, q.metric, q.n, func(i int) error {
			_, err := p.Exec(st, q.binds[i%len(q.binds)])
			return err
		})
		if err != nil {
			return err
		}
		out[q.metric] = us
	}

	// From here on every mutation is journaled to a counting writer.
	var walBytes countingWriter
	wal, err := store.NewWAL(st, &walBytes)
	if err != nil {
		return err
	}
	defer st.SetJournal(nil)
	writes := []struct {
		metric, rule string
		action       int
		binds        []event.Bindings
		n            int
	}{
		{"sqlmini.update_uc_us", "loc_1", 0, loc, scanRepeats},
		{"sqlmini.insert_us", "loc_1", 1, loc, stmtRepeats},
		{"sqlmini.bulk_insert_us", "pack_1", 0, pack, stmtRepeats},
	}
	for _, q := range writes {
		p, err := action(q.rule, q.action)
		if err != nil {
			return err
		}
		us, err := timeCalls(rec, q.metric, q.n, func(i int) error {
			_, err := p.Exec(st, q.binds[i%len(q.binds)])
			return err
		})
		if err != nil {
			return err
		}
		out[q.metric] = us
	}
	if err := wal.Flush(); err != nil {
		return err
	}
	out["store.wal_entries"] = float64(wal.Entries())
	out["store.wal_bytes_per_mutation"] = float64(walBytes) / float64(wal.Entries())
	return nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// storeProbes times direct Table calls on the store the run left behind,
// and the snapshot of it.
func storeProbes(rec *recorder, st *store.Store, out map[string]float64) error {
	rows := 0
	for _, name := range st.Tables() {
		t, err := st.Table(name)
		if err != nil {
			return err
		}
		rows += t.Len()
	}
	out["store.rows"] = float64(rows)

	var snap countingWriter
	us, err := timeCalls(rec, "store.Save", 1, func(int) error { return st.Save(&snap) })
	if err != nil {
		return err
	}
	out["store.snapshot_ms"] = us / 1e3
	out["store.snapshot_bytes"] = float64(snap)

	t, err := st.Table(store.TableLocation)
	if err != nil {
		return err
	}
	var objects []event.Value
	t.Scan(func(_ int64, r store.Row) bool {
		objects = append(objects, r[0])
		return len(objects) < stmtRepeats
	})
	if len(objects) == 0 {
		return fmt.Errorf("%s is empty after the run", store.TableLocation)
	}
	obj := func(i int) event.Value { return objects[i%len(objects)] }
	us, err = timeCalls(rec, "store.lookup_us", stmtRepeats, func(i int) error {
		return t.Lookup("object_epc", obj(i), func(int64, store.Row) bool { return true })
	})
	if err != nil {
		return err
	}
	out["store.lookup_us"] = us
	us, err = timeCalls(rec, "store.update_us", scanRepeats, func(i int) error {
		o := obj(i)
		_, err := t.Update(
			func(r store.Row) bool { return r[0].Equal(o) && r[3].Time() == store.UC },
			func(r store.Row) (store.Row, error) { return r, nil })
		return err
	})
	if err != nil {
		return err
	}
	out["store.update_us"] = us
	us, err = timeCalls(rec, "store.insert_us", stmtRepeats, func(i int) error {
		return t.Insert([]event.Value{obj(i), event.StringValue("bench"), event.TimeValue(0), event.TimeValue(store.UC)})
	})
	if err != nil {
		return err
	}
	out["store.insert_us"] = us
	return nil
}

// ---- path workloads: llrp, pipeline, wire, rcep -----------------------------

const cutRepeats = 3

func (w *pathRun) layers(rec *recorder, plain, traced *passResult, out map[string]float64) error {
	nobs := len(w.in.obs)
	// Each cut is the median of cutRepeats runs, each run long enough (about
	// a saturating run's observations) for CPU-time deltas to stand clear
	// of timer resolution.
	loops := 1
	if target := 100000 / w.div; nobs < target {
		loops = target / nobs
	}
	var cuts [cutWire + 1]cutCost
	var wireLink *link
	for level := cutLLRP; level <= cutWire; level++ {
		var cpu, allocs []float64
		for i := 0; i < cutRepeats; i++ {
			var sum cutCost
			for j := 0; j < loops; j++ {
				c, l, err := w.cut(level)
				if err != nil {
					return fmt.Errorf("cut %d: %w", level, err)
				}
				sum.cpu += c.cpu
				sum.allocs += c.allocs
				if l != nil {
					wireLink = l
				}
			}
			cpu = append(cpu, float64(sum.cpu))
			allocs = append(allocs, float64(sum.allocs))
		}
		cuts[level] = cutCost{cpu: time.Duration(median(cpu)), allocs: uint64(median(allocs))}
	}
	n := float64(nobs * loops)
	perEv := func(c cutCost) (ns, allocs float64) { return float64(c.cpu) / n, float64(c.allocs) / n }

	ns, al := perEv(cuts[cutLLRP])
	out["llrp.ns_per_event"] = ns
	out["llrp.allocs_per_event"] = al
	out["llrp.tags_per_report"] = w.fs.tagsPerReport()
	ns, al = perEv(cuts[cutPipeline].minus(cuts[cutLLRP]))
	out["pipeline.ns_per_event"] = ns
	out["pipeline.allocs_per_event"] = al
	out["pipeline.batches"] = float64(len(w.fs.ends))
	out["pipeline.dropped"] = float64(nobs - w.ingested)
	ns, al = perEv(cuts[cutWire].minus(cuts[cutPipeline]))
	out["wire.ns_per_event"] = ns
	out["wire.allocs_per_event"] = al
	out["wire.bytes_per_event"] = float64(wireLink.sent.Load()) / float64(nobs)
	// The engine behind the server: a saturating full pass minus the wire
	// cut. On a paced run the traced pass idles, so run one unpaced.
	full := plain
	if w.paced {
		var err error
		if full, err = w.run(nil, false); err != nil {
			return err
		}
	}
	out["rcep.ns_per_event"] = perEvent(full.m.cpuUsed, nobs) - float64(cuts[cutWire].cpu)/n
	if w.ref.count > 0 {
		out["wire.bytes_per_detection"] = float64(full.path.recvBytes) / float64(w.ref.count)
	}

	g := traced.path
	out["wire.frames"] = float64(g.frames)
	out["wire.send_us_per_frame"] = g.sendPerFr
	out["wire.unacked_max"] = g.unackedMax
	out["wire.queue_depth_max"] = g.queueMax
	out["wire.shed"] = float64(g.shed)
	out["wire.reconnects"] = float64(g.reconnects)
	out["gen.late_p99_us"] = g.lateP99
	out["gen.backlog_end"] = g.backlogEnd
	out["detect.pseudo_per_event"] = float64(g.engine.PseudoFired) / float64(nobs)
	out["detect.detections_per_event"] = float64(g.engine.Detections) / float64(nobs)
	out["detect.dropped"] = float64(g.engine.Dropped)
	return nil
}
