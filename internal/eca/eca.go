// Package eca implements the baseline the paper argues against (§4.1): a
// traditional ECA-style composite event detector in which detection runs
// at TYPE level and instance-level temporal constraints are evaluated only
// afterwards, as rule conditions. On temporally constrained RFID events
// this is incorrect — the Fig. 4 history yields zero detections instead of
// two — because constituents consumed by a type-level match are gone even
// when the post-hoc constraint check rejects the match.
//
// The engine supports the same expression AST as RCEDA except negation
// (classic ECA negation needs explicit initiator/terminator events, which
// is exactly the generality gap the paper describes).
package eca

import (
	"errors"
	"fmt"
	"strings"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// Config configures the baseline engine.
type Config struct {
	// Rules maps rule IDs to their event expressions.
	Rules map[int]event.Expr

	// Groups and TypeOf mirror detect.Config.
	Groups func(reader string) []string
	TypeOf func(object string) string

	// OnDetect fires for instances that pass the post-hoc condition
	// check.
	OnDetect func(ruleID int, inst *event.Instance)
}

// Metrics counts baseline activity.
type Metrics struct {
	Observations uint64
	Assembled    uint64 // type-level composite instances assembled
	Rejected     uint64 // assembled instances rejected by the condition
	Detections   uint64
}

// Engine is the type-level baseline detector.
type Engine struct {
	cfg   Config
	roots []*node
	ids   []int
	m     Metrics
	seq   uint64
}

// node is one operator of a rule's private tree (no sub-graph merging —
// another difference from RCEDA).
type node struct {
	kind      graph.Kind
	prim      *event.Prim
	children  []*node
	lo, hi    int64 // distance bounds (ns); hasDist
	hasDist   bool
	within    int64 // interval bound (ns); hasWithin
	hasWithin bool

	left  []*inst // pending initiators / AND left side
	right []*inst // AND right side
	accum []*inst // SEQ+ accumulation
}

// inst is a composite instance assembled at type level. ok carries the
// deferred constraint verdict: assembly ignores it, the root checks it.
type inst struct {
	begin, end event.Time
	binds      event.Bindings
	ok         bool
	seq        uint64
}

// New builds the baseline engine.
func New(cfg Config) (*Engine, error) {
	if cfg.OnDetect == nil {
		cfg.OnDetect = func(int, *event.Instance) {}
	}
	if cfg.Groups == nil {
		cfg.Groups = func(r string) []string { return []string{r} }
	}
	if cfg.TypeOf == nil {
		cfg.TypeOf = func(string) string { return "" }
	}
	// Memoize attribute functions exactly as RCEDA does, so performance
	// comparisons isolate the detection strategy.
	groups, types := cfg.Groups, cfg.TypeOf
	groupCache := map[string][]string{}
	cfg.Groups = func(r string) []string {
		if g, ok := groupCache[r]; ok {
			return g
		}
		g := groups(r)
		groupCache[r] = g
		return g
	}
	typeCache := map[string]string{}
	cfg.TypeOf = func(o string) string {
		if t, ok := typeCache[o]; ok {
			return t
		}
		if len(typeCache) >= 1<<16 {
			typeCache = make(map[string]string, 1<<10)
		}
		t := types(o)
		typeCache[o] = t
		return t
	}
	e := &Engine{cfg: cfg}
	for id, expr := range cfg.Rules {
		n, err := build(expr)
		if err != nil {
			return nil, fmt.Errorf("eca: rule %d: %w", id, err)
		}
		e.roots = append(e.roots, n)
		e.ids = append(e.ids, id)
	}
	return e, nil
}

var errNegation = errors.New("negation requires explicit initiator/terminator events in traditional ECA")

func build(expr event.Expr) (*node, error) {
	switch x := expr.(type) {
	case *event.Prim:
		return &node{kind: graph.KindPrim, prim: x}, nil
	case *event.Or:
		return binary(graph.KindOr, x.L, x.R, 0, 0, false)
	case *event.And:
		return binary(graph.KindAnd, x.L, x.R, 0, 0, false)
	case *event.Seq:
		return binary(graph.KindSeq, x.L, x.R, 0, 0, false)
	case *event.TSeq:
		return binary(graph.KindSeq, x.L, x.R, int64(x.Lo), int64(x.Hi), true)
	case *event.SeqPlus:
		c, err := build(x.X)
		if err != nil {
			return nil, err
		}
		return &node{kind: graph.KindSeqPlus, children: []*node{c}}, nil
	case *event.TSeqPlus:
		c, err := build(x.X)
		if err != nil {
			return nil, err
		}
		return &node{kind: graph.KindSeqPlus, children: []*node{c},
			lo: int64(x.Lo), hi: int64(x.Hi), hasDist: true}, nil
	case *event.Within:
		n, err := build(x.X)
		if err != nil {
			return nil, err
		}
		if !n.hasWithin || int64(x.Max) < n.within {
			n.within, n.hasWithin = int64(x.Max), true
		}
		return n, nil
	case *event.Not:
		return nil, errNegation
	case *event.Guarded:
		return nil, errors.New("value guards (WHERE) require the graph engine; traditional ECA matches on event types only")
	}
	return nil, fmt.Errorf("unsupported expression %T", expr)
}

func binary(k graph.Kind, l, r event.Expr, lo, hi int64, hasDist bool) (*node, error) {
	ln, err := build(l)
	if err != nil {
		return nil, err
	}
	rn, err := build(r)
	if err != nil {
		return nil, err
	}
	return &node{kind: k, children: []*node{ln, rn}, lo: lo, hi: hi, hasDist: hasDist}, nil
}

// Ingest feeds one observation through every rule tree.
func (e *Engine) Ingest(obs event.Observation) error {
	e.m.Observations++
	for i, root := range e.roots {
		for _, out := range e.feed(root, obs) {
			e.m.Assembled++
			if !out.ok {
				e.m.Rejected++
				continue
			}
			e.m.Detections++
			e.cfg.OnDetect(e.ids[i], &event.Instance{
				Begin: out.begin, End: out.end, Binds: out.binds, Seq: out.seq,
			})
		}
	}
	return nil
}

// Close is a no-op: the type-level baseline has no pseudo events — which
// is precisely why it cannot complete non-spontaneous events (paper §4.4).
func (e *Engine) Close() {}

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// feed pushes an observation into a subtree and returns the composite
// instances it produces at this node.
func (e *Engine) feed(n *node, obs event.Observation) []*inst {
	switch n.kind {
	case graph.KindPrim:
		binds, match := matchPrim(n.prim, obs, e.cfg.Groups, e.cfg.TypeOf)
		if !match {
			return nil
		}
		return []*inst{{begin: obs.At, end: obs.At, binds: binds, ok: true, seq: e.nextSeq()}}
	case graph.KindOr:
		out := e.feed(n.children[0], obs)
		return append(out, e.feed(n.children[1], obs)...)
	case graph.KindAnd:
		var out []*inst
		for _, li := range e.feed(n.children[0], obs) {
			out = append(out, e.pairAnd(n, li, true)...)
		}
		for _, ri := range e.feed(n.children[1], obs) {
			out = append(out, e.pairAnd(n, ri, false)...)
		}
		return out
	case graph.KindSeq:
		var out []*inst
		if left := n.children[0]; left.kind == graph.KindSeqPlus {
			// The aperiodic initiator accumulates; a terminator flushes
			// the WHOLE accumulation as one composite — the type-level
			// behavior whose post-hoc adjacency check the paper's Fig. 4
			// shows to be incorrect.
			e.feed(left, obs)
			for _, ri := range e.feed(n.children[1], obs) {
				li, ok := e.seqPlusFlush(left)
				if !ok {
					continue
				}
				out = append(out, e.combineSeq(n, li, ri))
			}
			return out
		}
		for _, li := range e.feed(n.children[0], obs) {
			n.left = append(n.left, li)
		}
		for _, ri := range e.feed(n.children[1], obs) {
			// Type-level pairing: oldest pending initiator, no temporal
			// checks here.
			for idx, li := range n.left {
				if !li.binds.Compatible(ri.binds) {
					continue
				}
				n.left = append(n.left[:idx], n.left[idx+1:]...)
				out = append(out, e.combineSeq(n, li, ri))
				break
			}
		}
		return out
	case graph.KindSeqPlus:
		// Accumulate every child instance; the whole buffer is flushed as
		// one composite when the parent sequence consumes it.
		n.accum = append(n.accum, e.feed(n.children[0], obs)...)
		return nil
	}
	return nil
}

// pairAnd joins one arriving side with the opposite buffer (oldest first).
func (e *Engine) pairAnd(n *node, in *inst, fromLeft bool) []*inst {
	mine, other := &n.left, &n.right
	if !fromLeft {
		mine, other = &n.right, &n.left
	}
	for idx, c := range *other {
		if !c.binds.Compatible(in.binds) {
			continue
		}
		*other = append((*other)[:idx], (*other)[idx+1:]...)
		begin, end := c.begin, c.end
		if in.begin < begin {
			begin = in.begin
		}
		if in.end > end {
			end = in.end
		}
		out := &inst{
			begin: begin, end: end,
			binds: c.binds.Merge(in.binds),
			ok:    c.ok && in.ok, seq: e.nextSeq(),
		}
		if n.hasWithin && int64(out.end-out.begin) > n.within {
			out.ok = false // condition check, after the fact
		}
		return []*inst{out}
	}
	*mine = append(*mine, in)
	return nil
}

// combineSeq assembles initiator+terminator, resolving SEQ+ initiators by
// flushing their whole accumulation, then applies the deferred checks.
func (e *Engine) combineSeq(n *node, li, ri *inst) *inst {
	out := &inst{begin: li.begin, end: ri.end, binds: li.binds.Merge(ri.binds),
		ok: li.ok && ri.ok, seq: e.nextSeq()}
	if li.end >= ri.begin {
		out.ok = false
	}
	if n.hasDist {
		d := int64(ri.end - li.end)
		if d < n.lo || d > n.hi {
			out.ok = false
		}
	}
	if n.hasWithin && int64(out.end-out.begin) > n.within {
		out.ok = false
	}
	return out
}

// seqInitiators returns (and consumes) the pending initiator for a SEQ
// whose left child is a SEQ+ accumulation node: the whole buffer becomes
// one composite, with the adjacency constraint checked only now.
func (e *Engine) seqPlusFlush(sp *node) (*inst, bool) {
	if len(sp.accum) == 0 {
		return nil, false
	}
	elems := sp.accum
	sp.accum = nil
	var binds []event.Bindings
	ok := true
	for i, el := range elems {
		binds = append(binds, el.binds)
		if !el.ok {
			ok = false
		}
		if i > 0 && sp.hasDist {
			d := int64(el.end - elems[i-1].end)
			if d < sp.lo || d > sp.hi {
				ok = false // the paper's Fig. 4 rejection point
			}
		}
	}
	out := &inst{
		begin: elems[0].begin, end: elems[len(elems)-1].end,
		binds: event.CollectLists(binds, nil), ok: ok, seq: e.nextSeq(),
	}
	if sp.hasWithin && int64(out.end-out.begin) > sp.within {
		out.ok = false
	}
	return out, true
}

func matchPrim(p *event.Prim, obs event.Observation, groups func(string) []string, typeOf func(string) string) (event.Bindings, bool) {
	anon := func(t event.Term) bool { return t.Var == "" && t.Lit == "" }
	if !p.Reader.IsVar() && !anon(p.Reader) && p.Reader.Lit != obs.Reader {
		return nil, false
	}
	if !p.Object.IsVar() && !anon(p.Object) && p.Object.Lit != obs.Object {
		return nil, false
	}
	for _, pred := range p.Preds {
		switch pred.Fn {
		case "group":
			matched := false
			for _, g := range groups(obs.Reader) {
				if pred.Op.Eval(strings.Compare(g, pred.Val)) {
					matched = true
					break
				}
			}
			if !matched {
				return nil, false
			}
		case "type":
			if !pred.Op.Eval(strings.Compare(typeOf(obs.Object), pred.Val)) {
				return nil, false
			}
		default:
			var got string
			switch {
			case p.Reader.IsVar() && p.Reader.Var == pred.Arg:
				got = obs.Reader
			case p.Object.IsVar() && p.Object.Var == pred.Arg:
				got = obs.Object
			default:
				return nil, false
			}
			if !pred.Op.Eval(strings.Compare(got, pred.Val)) {
				return nil, false
			}
		}
	}
	binds := make(event.Bindings, 0, 3)
	if p.Reader.IsVar() {
		binds = binds.Set(p.Reader.Var, event.StringValue(obs.Reader))
	}
	if p.Object.IsVar() {
		binds = binds.Set(p.Object.Var, event.StringValue(obs.Object))
	}
	if p.At.IsVar() {
		binds = binds.Set(p.At.Var, event.TimeValue(obs.At))
	}
	return binds, true
}
