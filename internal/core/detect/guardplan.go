package detect

import (
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// Guard evaluation (DESIGN.md §10). A guarded node carries a WHERE
// predicate over its instance bindings — inequalities and arithmetic
// between constituents, and aggregates over SEQ+ runs. The engine lowers
// the GExpr tree once at construction into a closure program (guardFn)
// that reads aggregates straight out of the open sequence's running
// accumulators instead of re-folding the collected lists. The semantics
// live in event's helpers (GuardCompare, GuardArith, GuardTruthy,
// FoldAgg); guard_ref_test.go keeps a tree fold over those helpers as the
// program's test-only reference.

// guardState is the per-node guard runtime.
type guardState struct {
	// aggVars lists the variables aggregated over, sorted and deduped —
	// the index space for openSeq.accs and checkpointed accumulators.
	aggVars []string
	// prog is the compiled program.
	prog guardFn
}

// newGuardState builds and compiles the guard runtime for a guarded node.
func newGuardState(n *graph.Node) *guardState {
	gs := &guardState{aggVars: event.GuardAggVars(n.Guard)}
	idx := make(map[string]int, len(gs.aggVars))
	for i, v := range gs.aggVars {
		idx[v] = i
	}
	gs.prog = compileGuard(n.Guard, idx)
	return gs
}

// guardCtx is the evaluation context of one compiled guard check.
type guardCtx struct {
	lk event.GuardLookup
	// accs are the running accumulators of the open sequence being
	// closed, indexed like guardState.aggVars; nil when the check has no
	// accumulators (non-SEQ+ nodes, pull-assembled runs), in which case
	// aggregates fold the collected lists via lk.
	accs []event.AggAcc
}

// guardFn is a compiled guard (sub)expression.
type guardFn func(*guardCtx) event.Value

// compileGuard lowers a guard expression to a closure tree. aggIdx maps
// aggregated variables to accumulator slots.
func compileGuard(g event.GExpr, aggIdx map[string]int) guardFn {
	switch x := g.(type) {
	case *event.GLit:
		v := x.V
		return func(*guardCtx) event.Value { return v }
	case *event.GVar:
		name := x.Name
		return func(ctx *guardCtx) event.Value {
			if v, ok := ctx.lk(name); ok {
				return v
			}
			return event.Null
		}
	case *event.GAgg:
		op, name := x.Op, x.Name
		slot, hasSlot := aggIdx[name]
		return func(ctx *guardCtx) event.Value {
			if hasSlot && ctx.accs != nil {
				v, err := ctx.accs[slot].Result(op)
				if err != nil {
					return event.Null
				}
				return v
			}
			col, ok := ctx.lk(name)
			if !ok {
				return event.Null
			}
			v, err := event.FoldAgg(op, col)
			if err != nil {
				return event.Null
			}
			return v
		}
	case *event.GNot:
		sub := compileGuard(x.X, aggIdx)
		return func(ctx *guardCtx) event.Value {
			return event.BoolValue(!event.GuardTruthy(sub(ctx)))
		}
	case *event.GNeg:
		sub := compileGuard(x.X, aggIdx)
		return func(ctx *guardCtx) event.Value {
			return event.GuardNegate(sub(ctx))
		}
	case *event.GBin:
		l := compileGuard(x.L, aggIdx)
		r := compileGuard(x.R, aggIdx)
		switch op := x.Op; op {
		case event.GuardAnd:
			return func(ctx *guardCtx) event.Value {
				if !event.GuardTruthy(l(ctx)) {
					return event.BoolValue(false)
				}
				return event.BoolValue(event.GuardTruthy(r(ctx)))
			}
		case event.GuardOr:
			return func(ctx *guardCtx) event.Value {
				if event.GuardTruthy(l(ctx)) {
					return event.BoolValue(true)
				}
				return event.BoolValue(event.GuardTruthy(r(ctx)))
			}
		case event.GuardAdd, event.GuardSub, event.GuardMul, event.GuardDiv:
			return func(ctx *guardCtx) event.Value {
				return event.GuardArith(op, l(ctx), r(ctx))
			}
		default: // comparisons
			return func(ctx *guardCtx) event.Value {
				return event.BoolValue(event.GuardCompare(op, l(ctx), r(ctx)))
			}
		}
	}
	return func(*guardCtx) event.Value { return event.Null }
}

// guardPass evaluates a node's guard against a binding lookup; accs
// supplies running SEQ+ accumulators when the check closes an open
// sequence. A nil guard always passes.
func (e *Engine) guardPass(gs *guardState, lk event.GuardLookup, accs []event.AggAcc) bool {
	if gs == nil {
		return true
	}
	return event.GuardTruthy(gs.prog(&guardCtx{lk: lk, accs: accs}))
}

// guardPassBinds checks n's guard against a single instance's bindings.
func (e *Engine) guardPassBinds(n *graph.Node, binds event.Bindings) bool {
	gs := e.states[n.ID].guard
	if gs == nil {
		return true
	}
	return e.guardPass(gs, event.BindsLookup(binds), nil)
}

// addAccs feeds one SEQ+ element's bindings into the open sequence's
// running accumulators, creating them on the first element. An unbound
// aggregated variable accumulates Null, matching the null padding
// CollectLists applies to the folded column.
func (st *nodeState) addAccs(binds event.Bindings) {
	gs := st.guard
	if gs == nil || len(gs.aggVars) == 0 {
		return
	}
	if st.open.accs == nil {
		st.open.accs = make([]event.AggAcc, len(gs.aggVars))
	}
	for i, v := range gs.aggVars {
		val, _ := binds.Get(v)
		st.open.accs[i].Add(event.CoerceScalar(val))
	}
}

// rebuildAccs recomputes the accumulators from the retained elements
// after overflow truncation dropped the older half of the run.
func (st *nodeState) rebuildAccs() {
	if st.open == nil || st.open.accs == nil {
		return
	}
	accs := make([]event.AggAcc, len(st.guard.aggVars))
	for i, v := range st.guard.aggVars {
		for _, el := range st.open.elems {
			val, _ := el.Get(v)
			accs[i].Add(event.CoerceScalar(val))
		}
	}
	st.open.accs = accs
}
