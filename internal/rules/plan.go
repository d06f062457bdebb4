package rules

import (
	"rcep/internal/core/event"
	"rcep/internal/sqlmini"
)

// Rule plans (DESIGN.md §9): each bound rule's IF condition and DO list
// are lowered once at Bind time into sqlmini prepared forms, so a firing
// evaluates closures instead of re-walking the ASTs. The plans are the
// executor's only dispatch path; plan_test.go checks them against a
// test-side dispatcher built on the sqlmini interpreters (EvalExpr,
// ExecStmt), error strings included.
//
// Compilation never fails (sqlmini preparation reproduces interpreter
// errors as error closures), so Bind's behavior is unchanged — the
// FuzzCompileRule property: any rule that parses also compiles.

// rulePlan is the compiled form of one rule's condition and actions.
type rulePlan struct {
	cond    *sqlmini.PreparedExpr // nil means IF true
	actions []actionPlan
}

// actionPlan is one compiled DO-list entry. Exactly one of sql / proc is
// used, mirroring the Action variants.
type actionPlan struct {
	src  Action                // original action, for diagnostics
	sql  *sqlmini.PreparedStmt // SQLAction
	name string                // ProcAction: procedure name
	args []*sqlmini.PreparedExpr
}

// compileRule lowers one rule. The executor's Funcs map is captured by
// reference: functions registered after Bind (rcep.RegisterFunc) are
// visible at evaluation time.
func (x *Executor) compileRule(r *Rule) rulePlan {
	var pl rulePlan
	if r.Cond != nil {
		pl.cond = sqlmini.PrepareExpr(r.Cond, x.funcs)
	}
	for _, a := range r.Actions {
		ap := actionPlan{src: a}
		switch act := a.(type) {
		case *SQLAction:
			ap.sql = sqlmini.PrepareStmt(act.Stmt)
		case *ProcAction:
			ap.name = act.Name
			ap.args = make([]*sqlmini.PreparedExpr, len(act.Args))
			for i, ae := range act.Args {
				ap.args[i] = sqlmini.PrepareExpr(ae, x.funcs)
			}
		}
		pl.actions = append(pl.actions, ap)
	}
	return pl
}

// implicitBindings extends the instance bindings with the detection
// span: event_begin and event_end (timestamps) and event_interval
// (seconds, float). It makes one exact-capacity allocation, merging the
// instance bindings with the three span variables (already in sorted
// order: event_begin < event_end < event_interval) in a single pass. User
// variables with the same names win.
func implicitBindings(inst *event.Instance) event.Bindings {
	imp := [3]event.Binding{
		{Var: "event_begin", Val: event.TimeValue(inst.Begin)},
		{Var: "event_end", Val: event.TimeValue(inst.End)},
		{Var: "event_interval", Val: event.DurationValue(inst.Interval())},
	}
	user := inst.Binds
	out := make(event.Bindings, 0, len(user)+len(imp))
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
