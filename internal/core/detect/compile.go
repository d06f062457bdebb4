package detect

import (
	"sort"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// Plan compilation (DESIGN.md §9): the per-event hot path is lowered once
// at engine construction instead of interpreted per observation. Each
// primitive pattern becomes a primPlan with its literals pre-interned to
// Symbols, its predicates pre-resolved to (source attribute, operator,
// literal) triples, and its binding template pre-sorted — so matching an
// observation is integer compares plus one exact-size Bindings fill, with
// no Term/Pred AST walk and no ParseScalar. The plans are the engine's
// only leaf matcher; prim_ref_test.go keeps a string-based linear matcher
// as their test-only reference.

// Attribute sources a compiled predicate or binding slot can draw from.
const (
	srcReader uint8 = iota
	srcObject
	srcAt
)

// Compiled predicate kinds, mirroring event.Pred.Fn.
const (
	predIdent uint8 = iota // bare variable comparison
	predType               // type(o) op 'v'
	predGroup              // group(r) op 'v'
)

// predPlan is one lowered attribute predicate. Evaluation is always a
// string compare against val: the rule language's
// Value.Compare(ParseScalar(val)) reduces to exactly that because the
// left-hand side is always a string attribute — equal strings compare
// equal in every ParseScalar interpretation, and mixed kinds fall back to
// string comparison.
//
// memo caches an object predicate's verdict per object symbol (0 unknown,
// 1 pass, 2 fail): the outcome is a pure function of its argument string —
// group and type maps are deployment constants (paper §2.1) and val is a
// rule literal — so after the first evaluation for a given symbol the hot
// path never touches strings again. The cache grows with the intern
// table, one byte per symbol per object predicate. Reader predicates need
// no memo: dispatch evaluates them once per reader (plansFor).
type predPlan struct {
	kind uint8
	op   event.CmpOp
	val  string
	memo []uint8
}

// bindSlot is one slot of a pre-sorted binding template.
type bindSlot struct {
	varName string
	src     uint8
}

// primPlan is the compiled form of one primitive pattern node.
type primPlan struct {
	node *graph.Node

	// readerLit/objectLit gate the pre-interned literal compares; a
	// variable or anonymous position leaves the attribute unconstrained.
	readerLit, objectLit bool
	readerSym, objectSym event.Symbol

	// readerPreds are the predicates on the reader (group(r), type(r),
	// bare r op 'v'): pure functions of the reader symbol, applied once
	// per reader when its dispatch list is built. preds are the
	// predicates on the object, evaluated per probe.
	readerPreds, preds []predPlan

	// binds is the pattern's binding template in final sorted order,
	// replicating Bindings.Set insertion (duplicate variables resolve to
	// the last Set in reader, object, at order).
	binds []bindSlot

	// dead marks a pattern that can never match any observation (unknown
	// predicate function or unresolvable predicate argument); the plan
	// rejects it at compile time.
	dead bool

	// guard is the node's compiled WHERE runtime, shared with the
	// node state; nil for unguarded patterns.
	guard *guardState
}

// compilePrim lowers one primitive pattern node, interning its literals
// into the engine's table.
func compilePrim(n *graph.Node, intern *event.Interner) *primPlan {
	p := n.Prim
	pl := &primPlan{node: n}
	anon := func(t event.Term) bool { return t.Var == "" && t.Lit == "" }
	if !p.Reader.IsVar() && !anon(p.Reader) {
		pl.readerLit = true
		pl.readerSym = intern.Intern(p.Reader.Lit)
	}
	if !p.Object.IsVar() && !anon(p.Object) {
		pl.objectLit = true
		pl.objectSym = intern.Intern(p.Object.Lit)
	}
	for _, pred := range p.Preds {
		var kind uint8
		switch pred.Fn {
		case "group":
			kind = predGroup
		case "type":
			kind = predType
		case "":
			kind = predIdent
		default:
			pl.dead = true
			return pl
		}
		src, ok := compilePredArg(p, pred.Arg)
		if !ok {
			pl.dead = true
			return pl
		}
		pp := predPlan{kind: kind, op: pred.Op, val: pred.Val}
		if src == srcReader {
			pl.readerPreds = append(pl.readerPreds, pp)
		} else {
			pl.preds = append(pl.preds, pp)
		}
	}
	add := func(v string, src uint8) {
		i := sort.Search(len(pl.binds), func(i int) bool { return pl.binds[i].varName >= v })
		if i < len(pl.binds) && pl.binds[i].varName == v {
			pl.binds[i].src = src
			return
		}
		pl.binds = append(pl.binds, bindSlot{})
		copy(pl.binds[i+1:], pl.binds[i:])
		pl.binds[i] = bindSlot{varName: v, src: src}
	}
	if p.Reader.IsVar() {
		add(p.Reader.Var, srcReader)
	}
	if p.Object.IsVar() {
		add(p.Object.Var, srcObject)
	}
	if p.At.IsVar() {
		add(p.At.Var, srcAt)
	}
	return pl
}

// compilePredArg resolves a predicate argument to its observation
// attribute at compile time: a variable names the reader or object
// position it binds, and a bare (argument-less) predicate on a literal or
// anonymous reader tests the reader.
func compilePredArg(p *event.Prim, arg string) (uint8, bool) {
	switch {
	case p.Reader.IsVar() && p.Reader.Var == arg:
		return srcReader, true
	case p.Object.IsVar() && p.Object.Var == arg:
		return srcObject, true
	case !p.Reader.IsVar() && arg == "":
		return srcReader, true
	}
	return 0, false
}

// buildPlans compiles every primitive pattern into e.plans, in node-ID
// order (graph.Prims is ID-ordered, the paper's probe order, which fixes
// Seq numbering). Dead plans — patterns that reject every observation —
// are left out: they never match, so skipping them cannot shift Seq
// numbering.
func (e *Engine) buildPlans() {
	for _, p := range e.g.Prims {
		if pl := compilePrim(p, e.intern); !pl.dead {
			pl.guard = e.states[p.ID].guard
			e.plans = append(e.plans, pl)
		}
	}
	e.dispatch = map[event.Symbol][]*primPlan{}
}

// plansFor builds a reader's dispatch list on the engine's first sight of
// it: the plans, in node-ID order, whose reader literal and reader
// predicates admit the reader. A plan left out is one matchPlan would
// have rejected before binding or guard, so Seq numbering cannot move.
// The cache holds one entry per distinct reader the engine has seen, not
// one per interned symbol.
func (e *Engine) plansFor(rsym event.Symbol, reader string) []*primPlan {
	var list []*primPlan
next:
	for _, pl := range e.plans {
		if pl.readerLit && pl.readerSym != rsym {
			continue
		}
		for i := range pl.readerPreds {
			if !e.predPass(&pl.readerPreds[i], reader, rsym) {
				continue next
			}
		}
		list = append(list, pl)
	}
	e.dispatch[rsym] = list
	return list
}

// dispatchObs matches one observation against the compiled plans in
// node-ID order — the paper's linear probe, and so its Seq numbering —
// but probes only the reader's dispatch list, compares interned symbols
// and fills pre-sorted binding templates. The observation is passed by
// pointer so the dispatch loop never copies the struct.
func (e *Engine) dispatchObs(obs *event.Observation) {
	rsym := e.symOf(obs.Reader)
	plans, ok := e.dispatch[rsym]
	if !ok {
		plans = e.plansFor(rsym, obs.Reader)
	}
	e.m.PlanProbes += uint64(len(plans))
	osym := e.symOf(obs.Object)
	for _, pl := range plans {
		binds, ok := e.matchPlan(pl, obs, osym)
		if !ok {
			continue
		}
		e.m.PrimMatches++
		inst := e.newInstance(obs.At, obs.At, binds, e.nextSeq())
		e.emit(pl.node, inst)
	}
}

// matchPlan matches one observation against a compiled pattern from its
// reader's dispatch list: the reader is already known to pass, so only
// the object, the bindings and the guard remain.
func (e *Engine) matchPlan(pl *primPlan, obs *event.Observation, osym event.Symbol) (event.Bindings, bool) {
	if pl.objectLit && pl.objectSym != osym {
		return nil, false
	}
	for i := range pl.preds {
		pp := &pl.preds[i]
		if int(osym) < len(pp.memo) {
			switch pp.memo[osym] {
			case 1:
				continue
			case 2:
				return nil, false
			}
		}
		pass := e.predPass(pp, obs.Object, osym)
		if i := int(osym); i >= len(pp.memo) {
			pp.memo = append(pp.memo, make([]uint8, i+1-len(pp.memo))...)
		}
		if pass {
			pp.memo[osym] = 1
		} else {
			pp.memo[osym] = 2
			return nil, false
		}
	}
	if len(pl.binds) == 0 {
		return nil, pl.guard == nil || e.guardPass(pl.guard, event.BindsLookup(nil), nil)
	}
	binds := e.allocBinds(len(pl.binds))
	for i, s := range pl.binds {
		switch s.src {
		case srcReader:
			binds[i] = event.Binding{Var: s.varName, Val: event.StringValue(obs.Reader)}
		case srcObject:
			binds[i] = event.Binding{Var: s.varName, Val: event.StringValue(obs.Object)}
		default:
			binds[i] = event.Binding{Var: s.varName, Val: event.TimeValue(obs.At)}
		}
	}
	if pl.guard != nil && !e.guardPass(pl.guard, event.BindsLookup(binds), nil) {
		return nil, false
	}
	return binds, true
}

// predPass evaluates one compiled predicate on an attribute value. It is
// the engine's one predicate evaluator: plansFor applies it to readers,
// matchPlan to objects.
func (e *Engine) predPass(pp *predPlan, arg string, sym event.Symbol) bool {
	switch pp.kind {
	case predGroup:
		for _, g := range e.groupsOfSym(sym, arg) {
			if pp.op.Eval(compareStr(g, pp.val)) {
				return true
			}
		}
		return false
	case predType:
		return pp.op.Eval(compareStr(e.typeOfSym(sym, arg), pp.val))
	}
	return pp.op.Eval(compareStr(arg, pp.val))
}

// groupsOfSym memoizes the group function in a flat slice indexed by
// Symbol — no hashing on the hot path. The cache grows with the intern
// table (see the sizing note in docs/OPERATIONS.md).
func (e *Engine) groupsOfSym(sym event.Symbol, s string) []string {
	i := int(sym)
	if i >= len(e.groupsBySym) {
		e.groupsBySym = append(e.groupsBySym, make([][]string, i+1-len(e.groupsBySym))...)
		e.groupsSet = append(e.groupsSet, make([]bool, i+1-len(e.groupsSet))...)
	}
	if !e.groupsSet[i] {
		e.groupsBySym[i] = e.groups(s)
		e.groupsSet[i] = true
	}
	return e.groupsBySym[i]
}

// typeOfSym memoizes the type function by Symbol. The flat cache grows
// with the intern table, which already retains one entry per distinct
// object.
func (e *Engine) typeOfSym(sym event.Symbol, s string) string {
	i := int(sym)
	if i >= len(e.typeBySym) {
		e.typeBySym = append(e.typeBySym, make([]string, i+1-len(e.typeBySym))...)
		e.typeSet = append(e.typeSet, make([]bool, i+1-len(e.typeSet))...)
	}
	if !e.typeSet[i] {
		e.typeBySym[i] = e.typeOf(s)
		e.typeSet[i] = true
	}
	return e.typeBySym[i]
}

// projectFilter is projectBinds drawing from the engine's freelist.
// Filters are transient: they parameterize a single negation/window query
// and never escape into emitted instances, so the backing arrays recycle.
// Pair every call with releaseFilter.
func (e *Engine) projectFilter(binds event.Bindings, vars []string) event.Bindings {
	if len(vars) == 0 {
		return projectBinds(binds, vars)
	}
	var out event.Bindings
	if n := len(e.filterPool); n > 0 {
		out = e.filterPool[n-1]
		e.filterPool = e.filterPool[:n-1]
	} else {
		out = make(event.Bindings, 0, 4)
	}
	for _, v := range vars {
		if val, ok := binds.Get(v); ok {
			out = out.Set(v, val)
		}
	}
	return out
}

// releaseFilter returns a filter's backing array to the freelist. The
// freelist is a stack, so queries that recurse into further queries
// (occurs → lazyClose → emit → deliver) nest safely: inner calls pop and
// push their own entries while the outer filter stays checked out.
func (e *Engine) releaseFilter(f event.Bindings) {
	if f == nil {
		return
	}
	e.filterPool = append(e.filterPool, f[:0])
}

// newPseudo returns a pseudo event, recycled from the freelist.
// drainPseudo returns each fired event to the pool: fire retains nothing
// of the struct itself (the payload instance is independently owned), and
// the heap has already dropped its pointer.
func (e *Engine) newPseudo() *pseudoEvent {
	if n := len(e.psPool); n > 0 {
		ps := e.psPool[n-1]
		e.psPool = e.psPool[:n-1]
		return ps
	}
	return &pseudoEvent{}
}
