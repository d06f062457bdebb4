package rules

import (
	"fmt"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/sqlmini"
	"rcep/internal/store"
)

// ActionContext is handed to user procedures when their rule fires.
type ActionContext struct {
	RuleID   string
	RuleName string
	Inst     *event.Instance
	Store    *store.Store
}

// Proc is a user-defined procedure invocable from a rule's DO list, e.g.
// send_alarm. args is valid only during the call: the executor reuses it
// for the next firing.
type Proc func(ctx ActionContext, args []event.Value) error

// Procs is a registry of user procedures by (case-sensitive) name.
type Procs map[string]Proc

// Firing records one executed rule for auditing/tests.
type Firing struct {
	RuleID string
	Inst   *event.Instance
}

// Executor evaluates rule conditions and runs actions when the detection
// engine reports an event occurrence. It implements the OnDetect callback
// of detect.Config via Dispatch.
type Executor struct {
	rs    *RuleSet
	store *store.Store
	procs Procs
	funcs sqlmini.Funcs

	byIndex []*Rule // graph rule index → rule

	// OnError receives action/condition errors; default collects them.
	OnError func(rule *Rule, err error)
	errs    []error
	firings []Firing

	// TraceFirings keeps the Firing log (on by default). Every record
	// pins its instance, so long-running callers turn it off and learn
	// of firings from Dispatch's result instead.
	TraceFirings bool

	// disabled holds rule IDs whose firing is suppressed at dispatch
	// time. Detection still happens (the graph is shared), only the
	// condition/action stage is skipped.
	disabled map[string]bool

	// firing holds the bindings and procedure arguments Dispatch reuses;
	// one entered during another (a procedure that ingests) takes fresh
	// slices, so the outer firing's never change under it.
	firing  scratch
	running bool
}

// scratch is one firing's working space.
type scratch struct {
	binds event.Bindings
	args  []event.Value
}

// NewExecutor wires a parsed rule set to a data store, user procedures and
// user condition functions (any of which may be nil).
func NewExecutor(rs *RuleSet, st *store.Store, procs Procs, funcs sqlmini.Funcs) *Executor {
	x := &Executor{rs: rs, store: st, procs: procs, funcs: funcs, TraceFirings: true}
	x.OnError = func(rule *Rule, err error) {
		x.errs = append(x.errs, fmt.Errorf("rule %s: %w", rule.ID, err))
	}
	return x
}

// Bind registers every rule's event with the graph builder. Rule i in the
// set gets graph rule ID i.
func (x *Executor) Bind(b *graph.Builder) error {
	for i, r := range x.rs.Rules {
		if _, err := b.AddRule(i, r.Event); err != nil {
			return fmt.Errorf("rule %s: %w", r.ID, err)
		}
		x.byIndex = append(x.byIndex, r)
	}
	return nil
}

// Rules returns the bound rule set.
func (x *Executor) Rules() *RuleSet { return x.rs }

// Errors returns the errors collected by the default OnError handler.
func (x *Executor) Errors() []error { return x.errs }

// Firings returns the audit log of fired rules.
func (x *Executor) Firings() []Firing { return x.firings }

// SetEnabled enables or disables a rule at runtime by its script ID. A
// disabled rule's event is still detected (the graph is shared with other
// rules) but its condition and actions are skipped. It reports whether
// the rule exists.
func (x *Executor) SetEnabled(ruleID string, enabled bool) bool {
	if _, ok := x.rs.Rule(ruleID); !ok {
		return false
	}
	if x.disabled == nil {
		x.disabled = map[string]bool{}
	}
	if enabled {
		delete(x.disabled, ruleID)
	} else {
		x.disabled[ruleID] = true
	}
	return true
}

// Dispatch is the detect.Config.OnDetect callback: evaluate the rule's IF
// condition against the instance bindings and, when satisfied, run the DO
// actions in order. Conditions, SQL actions and procedure arguments are
// evaluated over their ASTs by sqlmini's one evaluator; user functions
// and procedures resolve at dispatch time, so late registration works.
// It reports whether the rule fired — the condition held, whatever its
// actions then did. The merged bindings and procedure arguments live in
// executor-owned slices, valid only during the firing.
func (x *Executor) Dispatch(ruleIdx int, inst *event.Instance) bool {
	if ruleIdx < 0 || ruleIdx >= len(x.byIndex) {
		return false
	}
	r := x.byIndex[ruleIdx]
	if x.disabled[r.ID] {
		return false
	}
	sc := &scratch{}
	if !x.running {
		x.running, sc = true, &x.firing
		defer func() { x.running = false }()
	}
	sc.binds = implicitBindings(sc.binds[:0], inst)
	if r.Cond != nil {
		v, err := sqlmini.EvalExpr(x.store, r.Cond, sc.binds, x.funcs)
		if err != nil {
			x.OnError(r, fmt.Errorf("condition: %w", err))
			return false
		}
		if !sqlmini.Truthy(v) {
			return false
		}
	}
	if x.TraceFirings {
		x.firings = append(x.firings, Firing{RuleID: r.ID, Inst: inst})
	}
	for _, a := range r.Actions {
		if err := x.runAction(r, a, inst, sc); err != nil {
			x.OnError(r, err)
			// Subsequent actions still run: the paper's actions are an
			// ordered list of independent statements.
		}
	}
	return true
}

// runAction runs one DO-list entry.
func (x *Executor) runAction(r *Rule, a Action, inst *event.Instance, sc *scratch) error {
	switch act := a.(type) {
	case *SQLAction:
		if x.store == nil {
			return fmt.Errorf("action %q needs a data store", act)
		}
		if _, err := sqlmini.ExecStmt(x.store, act.Stmt, sc.binds); err != nil {
			return fmt.Errorf("action %q: %w", act, err)
		}
		return nil
	case *ProcAction:
		proc, ok := x.procs[act.Name]
		if !ok {
			return fmt.Errorf("action %q: no such procedure %s", act, act.Name)
		}
		sc.args = sc.args[:0]
		for i, ae := range act.Args {
			v, err := sqlmini.EvalExpr(x.store, ae, sc.binds, x.funcs)
			if err != nil {
				return fmt.Errorf("action %q: argument %d: %w", act, i+1, err)
			}
			sc.args = append(sc.args, v)
		}
		ctx := ActionContext{RuleID: r.ID, RuleName: r.Name, Inst: inst, Store: x.store}
		if err := proc(ctx, sc.args); err != nil {
			return fmt.Errorf("action %q: %w", act, err)
		}
		return nil
	}
	return fmt.Errorf("unknown action type %T", a)
}

// implicitBindings appends to out the instance bindings extended with the
// detection span: event_begin and event_end (timestamps) and
// event_interval (seconds, float). It merges the instance bindings with
// the three span variables (already in sorted order: event_begin <
// event_end < event_interval) in a single pass. User variables with the
// same names win.
func implicitBindings(out event.Bindings, inst *event.Instance) event.Bindings {
	imp := [3]event.Binding{
		{Var: "event_begin", Val: event.TimeValue(inst.Begin)},
		{Var: "event_end", Val: event.TimeValue(inst.End)},
		{Var: "event_interval", Val: event.DurationValue(inst.Interval())},
	}
	user := inst.Binds
	i, j := 0, 0
	for i < len(user) && j < len(imp) {
		switch {
		case user[i].Var < imp[j].Var:
			out = append(out, user[i])
			i++
		case user[i].Var > imp[j].Var:
			out = append(out, imp[j])
			j++
		default:
			out = append(out, user[i])
			i++
			j++
		}
	}
	out = append(out, user[i:]...)
	out = append(out, imp[j:]...)
	return out
}
