// Package rcep is a complex event processing engine for RFID data
// streams, reproducing Wang, Liu, Liu & Bai, "Bridging Physical and
// Virtual Worlds: Complex Event Processing for RFID Data Streams"
// (EDBT 2006).
//
// An Engine is configured with a declarative rule script:
//
//	DEFINE E1 = observation('r1', o1, t1)
//	DEFINE E2 = observation('r2', o2, t2)
//	CREATE RULE r4, containment rule
//	ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); E2, 10sec, 20sec)
//	IF true
//	DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')
//
// and fed reader observations in timestamp order. Complex events are
// detected by RCEDA — a graph-based detector in which temporal constraints
// are first-class and non-spontaneous events (negation, aperiodic
// sequences) complete via pseudo events — and fire the rules' SQL actions
// against an embedded RFID data store or user-registered procedures.
package rcep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/core/shard"
	"rcep/internal/rules"
	"rcep/internal/sqlmini"
	"rcep/internal/store"
)

// Observation is one primitive event: reader r saw object o at time At
// (an offset on the engine's virtual timeline).
type Observation struct {
	Reader string
	Object string
	At     time.Duration
}

// Detection reports one rule firing. Binds is the firing's bindings,
// sorted by variable: read-only, and valid only for the OnDetection
// callback. Bindings copies them into a map.
type Detection struct {
	RuleID   string
	RuleName string
	Begin    time.Duration
	End      time.Duration
	Binds    event.Bindings
}

// Bindings returns the firing's bindings as a fresh plain Go map (see
// valueToAny).
func (d Detection) Bindings() map[string]any {
	out := make(map[string]any, len(d.Binds))
	for _, kv := range d.Binds {
		out[kv.Var] = valueToAny(kv.Val)
	}
	return out
}

// ProcContext is passed to registered procedures.
type ProcContext struct {
	RuleID   string
	RuleName string
	Begin    time.Duration
	End      time.Duration
}

// Proc is a user procedure callable from a rule's DO list.
type Proc func(ctx ProcContext, args []any) error

// Func is a user scalar function callable from rule conditions.
type Func func(args []any) (any, error)

// Config configures an Engine.
type Config struct {
	// Rules is the rule script (DEFINE / CREATE RULE statements).
	Rules string

	// Groups maps a reader to its groups; nil means every reader is its
	// own group.
	Groups func(reader string) []string

	// TypeOf maps an object EPC to a type name for type(o) predicates:
	// the user-defined extraction or mapping function of paper §2.1.
	// epc.Registry.TypeOf maps GID-96 object classes; any other typing
	// is a function of the caller's own. Nil types every object "".
	TypeOf func(object string) string

	// OnDetection, when set, observes every rule firing (after the IF
	// condition passed).
	OnDetection func(Detection)

	// Shards, when > 1, partitions the rule set by reader/group key
	// space and runs up to that many detection engines in parallel (see
	// internal/core/shard). Observations fan out only to the shards
	// whose rules can match them; detections merge back into a
	// deterministic order, so OnDetection and the data store see them as
	// with a single engine. 0 or 1 keeps the classic single-goroutine
	// engine.
	Shards int

	// Limits (MaxPartitionBuffer, MaxHistory, MaxOpenSequence) bound
	// per-node engine state for unruly inputs (see detect.Limits); zero
	// means unbounded, the paper's semantics. Evictions are lossy and
	// counted in Metrics.Dropped.
	detect.Limits

	// StoreSnapshot, when set, restores the embedded data store from a
	// snapshot produced by SaveStore instead of opening a fresh one.
	StoreSnapshot io.Reader

	// Checkpoint, when set, restores BOTH the data store and the
	// engine's in-flight detection state (pending windows, open
	// sequences, scheduled pseudo events) from a SaveCheckpoint
	// snapshot. The rule script must be identical to the one that wrote
	// the checkpoint. Mutually exclusive with StoreSnapshot.
	Checkpoint io.Reader
}

// coreEngine is the detection-engine surface the facade drives; it is
// satisfied by both detect.Engine (single-goroutine) and shard.Engine
// (parallel, Config.Shards > 1).
type coreEngine interface {
	Ingest(event.Observation) error
	IngestBatch([]event.Observation) error
	AdvanceTo(event.Time) error
	Close()
	Metrics() detect.Metrics
	SaveCheckpoint(io.Writer) error
	RestoreCheckpoint(io.Reader) error
}

// Engine is a configured RFID complex event processor. With Config.Shards
// ≤ 1 it is not safe for concurrent use — feed it from one goroutine.
// With Shards > 1 ingestion calls are goroutine-safe, but rule actions
// and OnDetection still run on whichever goroutine triggers a delivery
// barrier, so callbacks must not call back into the engine.
type Engine struct {
	eng    *detect.Engine // single-engine mode, nil when sharded
	sh     *shard.Engine  // sharded mode, nil otherwise
	core   coreEngine     // whichever of the two is active
	exec   *rules.Executor
	store  *store.Store
	procs  rules.Procs
	funcs  sqlmini.Funcs
	errs   []error
	shards int
}

// New parses the rule script, compiles the event graph and returns a
// ready engine backed by a fresh RFID data store (OBSERVATION,
// OBJECTLOCATION, OBJECTCONTAINMENT, INVENTORY, ALERTS).
func New(cfg Config) (*Engine, error) {
	rs, err := rules.ParseScript(cfg.Rules)
	if err != nil {
		return nil, fmt.Errorf("rcep: parse rules: %w", err)
	}
	if len(rs.Rules) == 0 {
		return nil, errors.New("rcep: no rules in script")
	}
	e := &Engine{
		store: store.OpenRFID(),
		procs: rules.Procs{},
		funcs: sqlmini.Funcs{},
	}
	var engineCk []byte
	switch {
	case cfg.Checkpoint != nil && cfg.StoreSnapshot != nil:
		return nil, errors.New("rcep: Checkpoint and StoreSnapshot are mutually exclusive")
	case cfg.Checkpoint != nil:
		var ck fullCheckpoint
		if err := json.NewDecoder(cfg.Checkpoint).Decode(&ck); err != nil {
			return nil, fmt.Errorf("rcep: restore checkpoint: %w", err)
		}
		e.store, err = store.Load(bytes.NewReader(ck.Store))
		if err != nil {
			return nil, fmt.Errorf("rcep: restore checkpoint: %w", err)
		}
		engineCk = ck.Engine
	case cfg.StoreSnapshot != nil:
		e.store, err = store.Load(cfg.StoreSnapshot)
		if err != nil {
			return nil, fmt.Errorf("rcep: restore store: %w", err)
		}
	}
	e.exec = rules.NewExecutor(rs, e.store, e.procs, e.funcs)
	// The facade lives as long as its process: a firing log would pin
	// every fired instance (and its slab) forever.
	e.exec.TraceFirings = false
	e.exec.OnError = func(r *rules.Rule, err error) {
		e.errs = append(e.errs, fmt.Errorf("rule %s: %w", r.ID, err))
	}
	b := graph.NewBuilder()
	if err := e.exec.Bind(b); err != nil {
		return nil, fmt.Errorf("rcep: %w", err)
	}
	user := cfg.OnDetection
	onDetect := func(idx int, inst *event.Instance) {
		if e.exec.Dispatch(idx, inst) && user != nil {
			r := rs.Rules[idx]
			user(Detection{
				RuleID:   r.ID,
				RuleName: r.Name,
				Begin:    time.Duration(inst.Begin),
				End:      time.Duration(inst.End),
				Binds:    inst.Binds,
			})
		}
	}
	if cfg.Shards > 1 {
		shRules := make([]shard.Rule, len(rs.Rules))
		for i, r := range rs.Rules {
			shRules[i] = shard.Rule{ID: i, Expr: r.Event}
		}
		e.sh, err = shard.New(shard.Config{
			Rules:    shRules,
			Shards:   cfg.Shards,
			Groups:   cfg.Groups,
			TypeOf:   cfg.TypeOf,
			OnDetect: onDetect,
			Limits:   cfg.Limits,
		})
		if err != nil {
			return nil, fmt.Errorf("rcep: %w", err)
		}
		e.core = e.sh
		e.shards = e.sh.Shards()
	} else {
		e.eng, err = detect.New(detect.Config{
			Graph:    b.Finalize(),
			Groups:   cfg.Groups,
			TypeOf:   cfg.TypeOf,
			OnDetect: onDetect,
			Limits:   cfg.Limits,
		})
		if err != nil {
			return nil, fmt.Errorf("rcep: %w", err)
		}
		e.core = e.eng
		e.shards = 1
	}
	if engineCk != nil {
		if err := e.core.RestoreCheckpoint(bytes.NewReader(engineCk)); err != nil {
			return nil, fmt.Errorf("rcep: restore checkpoint: %w", err)
		}
	}
	return e, nil
}

// Shards returns the number of parallel detection engines serving this
// facade: 1 in classic single-engine mode, the partition's shard count
// (≤ Config.Shards) otherwise.
func (e *Engine) Shards() int { return e.shards }

// Interner returns the engine's shared string intern table. Ingest adapters (wire server,
// LLRP readers) canonicalize reader and EPC strings through it so every
// long-lived copy downstream shares one instance per distinct value. The
// table is goroutine-safe and only ever grows.
func (e *Engine) Interner() *event.Interner {
	if e.sh != nil {
		return e.sh.Interner()
	}
	return e.eng.Interner()
}

// sync forces pending sharded detections (and therefore rule actions)
// to be delivered before state the actions feed — the data store — is
// read. Single-engine mode delivers synchronously, so
// this is a no-op there.
func (e *Engine) sync() {
	if e.sh != nil {
		if err := e.sh.Sync(); err != nil {
			e.errs = append(e.errs, err)
		}
	}
}

// Flush forces pending sharded detections to be delivered now: rule
// actions run and OnDetection fires for everything detected up to the
// last ingested observation. It returns the first shard failure, if any.
// In single-engine mode delivery is synchronous and Flush is a no-op.
// Latency-sensitive callers (e.g. a server broadcasting firings) should
// Flush after each observation or batch; throughput-oriented feeds can
// let the engine deliver at its own barriers.
func (e *Engine) Flush() error {
	if e.sh == nil {
		return nil
	}
	if err := e.sh.Sync(); err != nil {
		e.errs = append(e.errs, err)
		return err
	}
	return nil
}

// RegisterProcedure makes a procedure callable from DO lists. Register
// everything before ingesting observations.
func (e *Engine) RegisterProcedure(name string, fn Proc) {
	e.procs[name] = func(ctx rules.ActionContext, args []event.Value) error {
		goArgs := make([]any, len(args))
		for i, a := range args {
			goArgs[i] = valueToAny(a)
		}
		return fn(ProcContext{
			RuleID:   ctx.RuleID,
			RuleName: ctx.RuleName,
			Begin:    time.Duration(ctx.Inst.Begin),
			End:      time.Duration(ctx.Inst.End),
		}, goArgs)
	}
}

// RegisterFunc makes a scalar function callable from IF conditions.
// Register everything before ingesting observations.
func (e *Engine) RegisterFunc(name string, fn Func) {
	e.funcs[name] = func(args []event.Value) (event.Value, error) {
		goArgs := make([]any, len(args))
		for i, a := range args {
			goArgs[i] = valueToAny(a)
		}
		out, err := fn(goArgs)
		if err != nil {
			return event.Null, err
		}
		return anyToValue(out)
	}
}

// SetRuleEnabled enables or disables a rule at runtime by its script ID.
// A disabled rule's event is still detected (the event graph is shared
// across rules) but its condition and actions are skipped. It reports
// whether the rule exists.
func (e *Engine) SetRuleEnabled(ruleID string, enabled bool) bool {
	return e.exec.SetEnabled(ruleID, enabled)
}

// Ingest feeds one observation. Observations must be in non-decreasing
// time order; use IngestAll with a pre-sorted batch when unsure.
func (e *Engine) Ingest(reader, object string, at time.Duration) error {
	return e.core.Ingest(event.Observation{Reader: reader, Object: object, At: event.Time(at)})
}

// IngestObservation feeds one Observation.
func (e *Engine) IngestObservation(o Observation) error {
	return e.Ingest(o.Reader, o.Object, o.At)
}

// IngestBatch sorts a batch by timestamp (stable) and feeds it. The whole
// batch must still not precede anything already ingested; when it does,
// the error is returned BEFORE anything is applied — the batch is atomic
// with respect to ordering failures (see detect.Engine.IngestBatch).
func (e *Engine) IngestBatch(batch []Observation) error {
	obs := make([]event.Observation, len(batch))
	for i, o := range batch {
		obs[i] = event.Observation{Reader: o.Reader, Object: o.Object, At: event.Time(o.At)}
	}
	return e.core.IngestBatch(obs)
}

// IngestEvents feeds a batch already in the core observation type, with
// IngestBatch's ordering semantics but no conversion copy — the zero-alloc
// hand-off the wire server and LLRP adapters use (DESIGN.md §12). The
// engine does not retain the slice.
func (e *Engine) IngestEvents(batch []event.Observation) error {
	return e.core.IngestBatch(batch)
}

// AdvanceTo moves virtual time forward with no observations, letting
// negation windows and sequence closures expire (e.g. outfield events).
func (e *Engine) AdvanceTo(at time.Duration) error {
	return e.core.AdvanceTo(event.Time(at))
}

// Close completes every pending detection whose window ends after the
// last observation, and returns the accumulated rule action errors (nil
// when every action succeeded).
func (e *Engine) Close() error {
	e.core.Close()
	if e.sh != nil {
		if err := e.sh.Err(); err != nil {
			e.errs = append(e.errs, err)
		}
	}
	return errors.Join(e.errs...)
}

// Errs returns the rule action/condition errors collected so far.
func (e *Engine) Errs() []error { return e.errs }

// Query runs a SELECT against the embedded RFID data store. In sharded
// mode pending rule actions are applied first.
func (e *Engine) Query(sql string) (cols []string, rows [][]any, err error) {
	e.sync()
	res, err := sqlmini.Exec(e.store, sql, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("rcep: %w", err)
	}
	out := make([][]any, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = valueToAny(v)
		}
		out[i] = row
	}
	return res.Columns, out, nil
}

// Exec runs a non-SELECT SQL statement against the embedded store and
// returns the number of affected rows. Useful for seeding reference data.
func (e *Engine) Exec(sql string) (int, error) {
	e.sync()
	res, err := sqlmini.Exec(e.store, sql, nil)
	if err != nil {
		return 0, fmt.Errorf("rcep: %w", err)
	}
	return res.RowsAffected, nil
}

// Stay is one entry of an object's reconstructed movement trace. Open
// marks the current (until-changed) stay.
type Stay struct {
	Location string
	Start    time.Duration
	End      time.Duration // meaningless when Open
	Open     bool
}

// Trace reconstructs an object's movement from the data store's location
// and containment histories: where it was, following containment chains
// (an item inside a case is wherever the case is).
func (e *Engine) Trace(object string) ([]Stay, error) {
	e.sync()
	stays, err := store.Trace(e.store, object)
	if err != nil {
		return nil, fmt.Errorf("rcep: %w", err)
	}
	if len(stays) == 0 {
		return nil, nil
	}
	out := make([]Stay, len(stays))
	for i, s := range stays {
		out[i] = Stay{
			Location: s.Location,
			Start:    time.Duration(s.Start),
			End:      time.Duration(s.End),
			Open:     s.End == store.UC,
		}
	}
	return out, nil
}

// LocateAt resolves an object's effective location at a point in time,
// following containment chains.
func (e *Engine) LocateAt(object string, at time.Duration) (string, bool) {
	e.sync()
	return store.EffectiveLocationAt(e.store, object, event.Time(at))
}

// SaveStore snapshots the embedded data store as JSON; restore it in a
// later session via Config.StoreSnapshot.
func (e *Engine) SaveStore(w io.Writer) error {
	e.sync()
	return e.store.Save(w)
}

// fullCheckpoint combines the data store and the detection state.
type fullCheckpoint struct {
	Store  json.RawMessage `json:"store"`
	Engine json.RawMessage `json:"engine"`
}

// SaveCheckpoint snapshots the data store AND the engine's in-flight
// detection state, so a restart (Config.Checkpoint with the same rules)
// resumes mid-window: buffered constituents, open sequences and pending
// negation windows all survive.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	// Pending sharded detections run their actions first so the saved
	// store matches the saved detection state (which excludes them).
	e.sync()
	var st, en bytes.Buffer
	if err := e.store.Save(&st); err != nil {
		return fmt.Errorf("rcep: checkpoint store: %w", err)
	}
	if err := e.core.SaveCheckpoint(&en); err != nil {
		return fmt.Errorf("rcep: checkpoint engine: %w", err)
	}
	return json.NewEncoder(w).Encode(fullCheckpoint{
		Store:  st.Bytes(),
		Engine: en.Bytes(),
	})
}

// Metrics summarizes engine activity.
type Metrics struct {
	Observations    uint64
	PseudoScheduled uint64
	PseudoFired     uint64
	Detections      uint64
	Dropped         uint64 // state evicted by the Max* limits
}

// Metrics returns a snapshot of activity counters. In sharded mode the
// counters aggregate across shards (see ShardMetrics for the breakdown)
// after a consistent quiesce.
func (e *Engine) Metrics() Metrics {
	m := e.core.Metrics()
	return Metrics{
		Observations:    m.Observations,
		PseudoScheduled: m.PseudoScheduled,
		PseudoFired:     m.PseudoFired,
		Detections:      m.Detections,
		Dropped:         m.Dropped,
	}
}

// ShardMetrics returns every detection shard's own counters (index =
// shard ID; Observations counts what was routed to that shard). It is
// nil in single-engine mode.
func (e *Engine) ShardMetrics() []Metrics {
	if e.sh == nil {
		return nil
	}
	per := e.sh.ShardMetrics()
	out := make([]Metrics, len(per))
	for i, m := range per {
		out[i] = Metrics{
			Observations:    m.Observations,
			PseudoScheduled: m.PseudoScheduled,
			PseudoFired:     m.PseudoFired,
			Detections:      m.Detections,
			Dropped:         m.Dropped,
		}
	}
	return out
}

// valueToAny converts an internal value to a plain Go value: string,
// int64, float64, bool, time.Duration (timestamps), []any (lists) or nil.
func valueToAny(v event.Value) any {
	switch v.Kind() {
	case event.KindString:
		return v.Str()
	case event.KindInt:
		return v.Int()
	case event.KindFloat:
		return v.Float()
	case event.KindBool:
		return v.Bool()
	case event.KindTime:
		if v.Time() == store.UC {
			return "UC"
		}
		return time.Duration(v.Time())
	case event.KindList:
		out := make([]any, v.Len())
		for i := 0; i < v.Len(); i++ {
			out[i] = valueToAny(v.Elem(i))
		}
		return out
	}
	return nil
}

// anyToValue converts a plain Go value into an internal value.
func anyToValue(x any) (event.Value, error) {
	switch v := x.(type) {
	case nil:
		return event.Null, nil
	case string:
		return event.StringValue(v), nil
	case bool:
		return event.BoolValue(v), nil
	case int:
		return event.IntValue(int64(v)), nil
	case int64:
		return event.IntValue(v), nil
	case float64:
		return event.FloatValue(v), nil
	case time.Duration:
		return event.TimeValue(event.Time(v)), nil
	}
	return event.Null, fmt.Errorf("rcep: unsupported value type %T", x)
}
