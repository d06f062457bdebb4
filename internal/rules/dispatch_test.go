package rules

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/sqlmini"
	"rcep/internal/store"
)

// fuzzBindings derives a deterministic binding set from fuzz data: comma
// fields bound to the variable names the seed scripts actually use.
func fuzzBindings(data string) event.Bindings {
	names := []string{"a", "b", "c", "o", "r", "t", "x", "k"}
	var binds event.Bindings
	for i, part := range strings.Split(data, ",") {
		if i >= len(names) {
			break
		}
		binds = binds.Set(names[i], event.ParseScalar(part))
	}
	return binds
}

// fuzzStore builds one small deterministic store so EXISTS/IN and action
// statements execute for real under both dispatchers.
func fuzzStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	if err := s.CreateTable("T", store.Schema{
		{Name: "k", Type: event.KindString},
		{Name: "n", Type: event.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "tag"} {
		if err := tbl.Insert([]event.Value{event.StringValue(k), event.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func dumpStore(s *store.Store) string {
	var sb strings.Builder
	for _, name := range s.Tables() {
		tbl, err := s.Table(name)
		if err != nil {
			continue
		}
		sb.WriteString(name)
		sb.WriteByte('\n')
		tbl.Scan(func(id int64, r store.Row) bool {
			fmt.Fprintf(&sb, "%d:", id)
			for _, v := range r {
				sb.WriteString(v.String())
				sb.WriteByte('|')
			}
			sb.WriteByte('\n')
			return true
		})
	}
	return sb.String()
}

// noter is a procedure registry whose one procedure, note, records each
// call's rule and arguments.
func noter(notes *[]string) Procs {
	return Procs{"note": func(ctx ActionContext, args []event.Value) error {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.String()
		}
		*notes = append(*notes, ctx.RuleID+":"+strings.Join(parts, ","))
		return nil
	}}
}

// FuzzBindRule: every rule that parses binds (or reports why not) and
// dispatches without panicking, and Dispatch agrees with the reference
// dispatcher on twin stores — whether each rule fired, the firing log,
// procedure calls, error texts and the stores' contents.
func FuzzBindRule(f *testing.F) {
	for _, s := range seedScripts {
		f.Add(s, "x,1,2.5")
	}
	f.Add(`CREATE RULE a, n ON observation(r, o, t)
		IF upper(o) = 'X' OR k IN (SELECT k FROM T WHERE n >= 1)
		DO INSERT INTO T VALUES (o, 9); note(o, t)`, "tag,3")
	f.Add(`CREATE RULE a, n ON observation(r, o, t) IF f(x) + 1 > 2 AND x IS NOT NULL DO UPDATE T SET n = n + 1 WHERE k = o`, "1,2,3,tag,r1,5,7")
	f.Add(`CREATE RULE a, n ON observation(r, o, t) IF o LIKE 'ta%' AND NOT EXISTS (SELECT * FROM missing) DO DELETE FROM T WHERE n < 0`, "u")
	f.Fuzz(func(t *testing.T, src, data string) {
		rs, err := ParseScript(src)
		if err != nil {
			return
		}
		funcs := sqlmini.Funcs{"f": func(args []event.Value) (event.Value, error) {
			if len(args) == 0 {
				return event.IntValue(0), nil
			}
			return args[0], nil
		}}
		stA, stB := fuzzStore(t), fuzzStore(t)
		var xNotes, rNotes []string
		x := NewExecutor(rs, stA, noter(&xNotes), funcs)
		if err := x.Bind(graph.NewBuilder()); err != nil {
			return
		}
		ref := &refDispatcher{rules: rs.Rules, store: stB, procs: noter(&rNotes), funcs: funcs}
		inst := &event.Instance{Begin: event.Time(time.Second), End: event.Time(3 * time.Second), Binds: fuzzBindings(data)}
		for i := range rs.Rules {
			if got, want := x.Dispatch(i, inst), ref.dispatch(i, inst); got != want {
				t.Fatalf("rule %d: Dispatch fired = %v, reference %v", i, got, want)
			}
		}
		var xFirings, xErrs []string
		for _, fr := range x.Firings() {
			xFirings = append(xFirings, fr.RuleID+"|"+fr.Inst.Binds.String())
		}
		for _, e := range x.Errors() {
			xErrs = append(xErrs, e.Error())
		}
		if fmt.Sprint(xFirings) != fmt.Sprint(ref.firings) {
			t.Fatalf("firings diverge:\nDispatch:  %v\nreference: %v", xFirings, ref.firings)
		}
		if fmt.Sprint(xErrs) != fmt.Sprint(ref.errs) {
			t.Fatalf("errors diverge:\nDispatch:  %v\nreference: %v", xErrs, ref.errs)
		}
		if fmt.Sprint(xNotes) != fmt.Sprint(rNotes) {
			t.Fatalf("procedure calls diverge:\nDispatch:  %v\nreference: %v", xNotes, rNotes)
		}
		if a, b := dumpStore(stA), dumpStore(stB); a != b {
			t.Fatalf("stores diverge:\nDispatch:\n%s\nreference:\n%s", a, b)
		}
	})
}

// refDispatcher is the executor's test-only reference: Dispatch's
// semantics written out independently — span bindings built by
// withImplicitBindings, the firing log, the executor's error wrapping —
// over sqlmini.EvalExpr and ExecStmt.
type refDispatcher struct {
	rules   []*Rule
	store   *store.Store
	procs   Procs
	funcs   sqlmini.Funcs
	firings []string
	errs    []string
}

// withImplicitBindings extends the instance bindings with the detection
// span: event_begin and event_end (timestamps) and event_interval
// (seconds, float). User variables with the same names win.
func withImplicitBindings(inst *event.Instance) event.Bindings {
	binds := inst.Binds.Clone()
	for k, v := range map[string]event.Value{
		"event_begin":    event.TimeValue(inst.Begin),
		"event_end":      event.TimeValue(inst.End),
		"event_interval": event.DurationValue(inst.Interval()),
	} {
		if _, taken := binds.Get(k); !taken {
			binds = binds.Set(k, v)
		}
	}
	return binds
}

func (d *refDispatcher) dispatch(ruleIdx int, inst *event.Instance) bool {
	r := d.rules[ruleIdx]
	binds := withImplicitBindings(inst)
	fail := func(err error) { d.errs = append(d.errs, fmt.Errorf("rule %s: %w", r.ID, err).Error()) }
	if r.Cond != nil {
		v, err := sqlmini.EvalExpr(d.store, r.Cond, binds, d.funcs)
		if err != nil {
			fail(fmt.Errorf("condition: %w", err))
			return false
		}
		if !sqlmini.Truthy(v) {
			return false
		}
	}
	d.firings = append(d.firings, r.ID+"|"+inst.Binds.String())
	for _, a := range r.Actions {
		if err := d.runAction(r, a, inst, binds); err != nil {
			fail(err)
		}
	}
	return true
}

func (d *refDispatcher) runAction(r *Rule, a Action, inst *event.Instance, binds event.Bindings) error {
	switch act := a.(type) {
	case *SQLAction:
		if d.store == nil {
			return fmt.Errorf("action %q needs a data store", act)
		}
		if _, err := sqlmini.ExecStmt(d.store, act.Stmt, binds); err != nil {
			return fmt.Errorf("action %q: %w", act, err)
		}
		return nil
	case *ProcAction:
		proc, ok := d.procs[act.Name]
		if !ok {
			return fmt.Errorf("action %q: no such procedure %s", act, act.Name)
		}
		args := make([]event.Value, len(act.Args))
		for i, ae := range act.Args {
			v, err := sqlmini.EvalExpr(d.store, ae, binds, d.funcs)
			if err != nil {
				return fmt.Errorf("action %q: argument %d: %w", act, i+1, err)
			}
			args[i] = v
		}
		ctx := ActionContext{RuleID: r.ID, RuleName: r.Name, Inst: inst, Store: d.store}
		if err := proc(ctx, args); err != nil {
			return fmt.Errorf("action %q: %w", act, err)
		}
		return nil
	}
	return fmt.Errorf("unknown action type %T", a)
}

// TestExecutorMatchesReference drives full Dispatch — implicit bindings
// (user variables shadowing them included), condition, firing log, SQL and
// procedure actions, error wrapping — through the executor and through
// the reference dispatcher, and requires identical firings, identical
// error strings and identical store contents.
func TestExecutorMatchesReference(t *testing.T) {
	src := `
CREATE RULE r1, log reads
ON observation(r, o, t)
IF o != 'skip' AND event_interval >= 0
DO INSERT INTO T VALUES (o, 1); note(r, event_begin)

CREATE RULE r2, failing parts
ON observation(r, o, t)
IF length(o) > 2
DO INSERT INTO missing VALUES (o); nosuchproc(o); note(bad_var, o)

CREATE RULE r3, span
ON observation(r, o, t)
IF event_end > event_begin
DO note(event_begin, event_end, event_interval)
`
	rs, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	// Every fourth instance binds the span variables itself, which then
	// win over the implicit ones; each rule sees both kinds.
	instances := make([]*event.Instance, 12)
	for i := range instances {
		at := event.Time(i) * event.Time(time.Second)
		binds := event.Bindings{}.Set("r", event.StringValue("rd1")).
			Set("o", event.StringValue([]string{"tag", "skip", "pallet"}[i%3])).
			Set("t", event.TimeValue(at))
		if i%4 == 3 {
			binds = binds.Set("event_begin", event.IntValue(int64(-i))).
				Set("event_end", event.StringValue("user end")).
				Set("event_interval", event.IntValue(99))
		}
		instances[i] = &event.Instance{Begin: at, End: at + event.Time(time.Second), Binds: binds, Seq: uint64(i)}
	}
	var cNotes, rNotes []string
	cStore, rStore := fuzzStore(t), fuzzStore(t)
	x := NewExecutor(rs, cStore, noter(&cNotes), nil)
	if err := x.Bind(graph.NewBuilder()); err != nil {
		t.Fatal(err)
	}
	ref := &refDispatcher{rules: rs.Rules, store: rStore, procs: noter(&rNotes)}
	for i, inst := range instances {
		rule := i % len(rs.Rules)
		if got, want := x.Dispatch(rule, inst), ref.dispatch(rule, inst); got != want {
			t.Errorf("instance %d, rule %d: Dispatch fired = %v, reference %v", i, rule, got, want)
		}
	}
	var cFirings, cErrs []string
	for _, fr := range x.Firings() {
		cFirings = append(cFirings, fr.RuleID+"|"+fr.Inst.Binds.String())
	}
	for _, e := range x.Errors() {
		cErrs = append(cErrs, e.Error())
	}
	if len(cFirings) == 0 || len(cErrs) == 0 || len(cNotes) == 0 {
		t.Fatalf("vacuous run: %d firings, %d errors, %d notes", len(cFirings), len(cErrs), len(cNotes))
	}
	if fmt.Sprint(cFirings) != fmt.Sprint(ref.firings) {
		t.Errorf("firings diverge:\nDispatch:  %v\nreference: %v", cFirings, ref.firings)
	}
	if fmt.Sprint(cNotes) != fmt.Sprint(rNotes) {
		t.Errorf("procedure calls diverge:\nDispatch:  %v\nreference: %v", cNotes, rNotes)
	}
	if fmt.Sprint(cErrs) != fmt.Sprint(ref.errs) {
		t.Errorf("errors diverge:\nDispatch:  %v\nreference: %v", cErrs, ref.errs)
	}
	if c, r := dumpStore(cStore), dumpStore(rStore); c != r {
		t.Errorf("stores diverge:\nDispatch:\n%s\nreference:\n%s", c, r)
	}
}

// TestImplicitBindingsEquivalence checks the one-pass merge
// against the reference builder across collision cases.
func TestImplicitBindingsEquivalence(t *testing.T) {
	cases := []event.Bindings{
		nil,
		event.Bindings{}.Set("o", event.StringValue("x")),
		event.Bindings{}.Set("event_begin", event.StringValue("user wins")),
		event.Bindings{}.Set("a", event.IntValue(1)).Set("event_end", event.IntValue(2)).Set("z", event.IntValue(3)),
		event.Bindings{}.Set("event_begin", event.IntValue(1)).
			Set("event_end", event.IntValue(2)).
			Set("event_interval", event.IntValue(3)),
	}
	for i, binds := range cases {
		inst := &event.Instance{Begin: 1e9, End: 3e9, Binds: binds, Seq: 7}
		got := implicitBindings(nil, inst)
		want := withImplicitBindings(inst)
		if got.String() != want.String() {
			t.Errorf("case %d: merge %s, reference %s", i, got, want)
		}
	}
}
