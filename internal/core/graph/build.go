package graph

import (
	"fmt"
	"sort"
	"time"

	"rcep/internal/core/event"
)

// InvalidRuleError reports a structural error that makes a rule
// undetectable (paper §4.4: a rule is valid only if its event's detection
// mode is push or mixed).
type InvalidRuleError struct {
	RuleID int
	Reason string
}

// Error implements error.
func (e *InvalidRuleError) Error() string {
	return fmt.Sprintf("graph: rule %d invalid: %s", e.RuleID, e.Reason)
}

// Builder compiles rule event expressions into a shared event graph.
type Builder struct {
	merge bool
	g     *Graph
	next  int
}

// Option configures a Builder.
type Option func(*Builder)

// WithoutMerging disables common sub-graph merging; every rule gets private
// nodes. Used by the ablation benchmark (DESIGN.md A1).
func WithoutMerging() Option { return func(b *Builder) { b.merge = false } }

// NewBuilder returns a Builder with common sub-graph merging enabled.
func NewBuilder(opts ...Option) *Builder {
	b := &Builder{merge: true, g: &Graph{
		Roots: map[int]*Node{},
		ByKey: map[string]*Node{},
	}}
	for _, o := range opts {
		o(b)
	}
	return b
}

// AddRule compiles expr as the event part of rule ruleID, merges it into
// the graph, and returns its root node. It fails with *InvalidRuleError
// when the event is undetectable.
func (b *Builder) AddRule(ruleID int, expr event.Expr) (*Node, error) {
	if _, dup := b.g.Roots[ruleID]; dup {
		return nil, fmt.Errorf("graph: duplicate rule ID %d", ruleID)
	}
	root, err := b.build(expr, ruleID)
	if err != nil {
		return nil, err
	}
	propagateWithin(root)
	if err := b.analyze(root, ruleID); err != nil {
		return nil, err
	}
	if root.Mode == ModePull {
		return nil, &InvalidRuleError{RuleID: ruleID,
			Reason: fmt.Sprintf("event %s is non-spontaneous (pull mode) and can never be detected", root.key)}
	}
	root = b.intern(root)
	root.Rules = append(root.Rules, ruleID)
	b.g.Roots[ruleID] = root
	return root, nil
}

// Finalize computes the parent-dependent attributes (pseudo-event flags,
// history retention) over the whole graph and returns it. The Builder can
// keep accepting rules; call Finalize again after adding more.
func (b *Builder) Finalize() *Graph {
	b.assignPseudo()
	b.assignHistory()
	return b.g
}

// build converts the expression into a private node tree, folding WITHIN
// into interval-constraint annotations.
func (b *Builder) build(expr event.Expr, ruleID int) (*Node, error) {
	switch e := expr.(type) {
	case *event.Prim:
		return &Node{Kind: KindPrim, Prim: e, NotChild: -1}, nil
	case *event.Or:
		return b.binary(KindOr, e.L, e.R, ruleID)
	case *event.And:
		return b.binary(KindAnd, e.L, e.R, ruleID)
	case *event.Seq:
		return b.binary(KindSeq, e.L, e.R, ruleID)
	case *event.TSeq:
		if e.Lo < 0 || e.Hi < e.Lo {
			return nil, &InvalidRuleError{RuleID: ruleID,
				Reason: fmt.Sprintf("TSEQ bounds [%s, %s] are not a valid interval", e.Lo, e.Hi)}
		}
		n, err := b.binary(KindSeq, e.L, e.R, ruleID)
		if err != nil {
			return nil, err
		}
		n.Lo, n.Hi, n.HasDist = e.Lo, e.Hi, true
		return n, nil
	case *event.Not:
		if e.Win < 0 {
			return nil, &InvalidRuleError{RuleID: ruleID,
				Reason: fmt.Sprintf("negation window %s must be positive", e.Win)}
		}
		c, err := b.build(e.X, ruleID)
		if err != nil {
			return nil, err
		}
		n := &Node{Kind: KindNot, Children: []*Node{c}, NotChild: -1}
		if e.Win > 0 {
			n.NotWin, n.HasNotWin = e.Win, true
		}
		return n, nil
	case *event.Guarded:
		if e.Cond == nil {
			return nil, &InvalidRuleError{RuleID: ruleID, Reason: "nil guard expression"}
		}
		n, err := b.build(e.X, ruleID)
		if err != nil {
			return nil, err
		}
		// Stacked guards (X WHERE g1 WHERE g2) conjoin on the same node.
		n.Guard = event.GConj(n.Guard, e.Cond)
		return n, nil
	case *event.SeqPlus:
		c, err := b.build(e.X, ruleID)
		if err != nil {
			return nil, err
		}
		return &Node{Kind: KindSeqPlus, Children: []*Node{c}, NotChild: -1}, nil
	case *event.TSeqPlus:
		if e.Lo < 0 || e.Hi < e.Lo {
			return nil, &InvalidRuleError{RuleID: ruleID,
				Reason: fmt.Sprintf("TSEQ+ bounds [%s, %s] are not a valid interval", e.Lo, e.Hi)}
		}
		c, err := b.build(e.X, ruleID)
		if err != nil {
			return nil, err
		}
		return &Node{Kind: KindSeqPlus, Children: []*Node{c},
			Lo: e.Lo, Hi: e.Hi, HasDist: true, NotChild: -1}, nil
	case *event.Within:
		if e.Max <= 0 {
			return nil, &InvalidRuleError{RuleID: ruleID,
				Reason: fmt.Sprintf("WITHIN bound %s must be positive", e.Max)}
		}
		n, err := b.build(e.X, ruleID)
		if err != nil {
			return nil, err
		}
		if !n.HasWithin || e.Max < n.Within {
			n.Within, n.HasWithin = e.Max, true
		}
		return n, nil
	case nil:
		return nil, &InvalidRuleError{RuleID: ruleID, Reason: "nil event expression"}
	default:
		return nil, &InvalidRuleError{RuleID: ruleID,
			Reason: fmt.Sprintf("unsupported expression %T", expr)}
	}
}

func (b *Builder) binary(k Kind, l, r event.Expr, ruleID int) (*Node, error) {
	ln, err := b.build(l, ruleID)
	if err != nil {
		return nil, err
	}
	rn, err := b.build(r, ruleID)
	if err != nil {
		return nil, err
	}
	return &Node{Kind: k, Children: []*Node{ln, rn}, NotChild: -1}, nil
}

// propagateWithin pushes interval constraints top-down: a complex event
// always spans at least its constituents, so child.within =
// min(child.within, parent.within) (paper §4.3, Fig. 7).
func propagateWithin(n *Node) {
	for _, c := range n.Children {
		if n.HasWithin && (!c.HasWithin || n.Within < c.Within) {
			c.Within, c.HasWithin = n.Within, true
		}
		propagateWithin(c)
	}
}

// analyze assigns modes bottom-up, validates structure, and computes join
// variables and canonical keys.
func (b *Builder) analyze(n *Node, ruleID int) error {
	for _, c := range n.Children {
		if err := b.analyze(c, ruleID); err != nil {
			return err
		}
	}
	fail := func(format string, args ...any) error {
		return &InvalidRuleError{RuleID: ruleID, Reason: fmt.Sprintf(format, args...)}
	}
	switch n.Kind {
	case KindPrim:
		n.Mode = ModePush
	case KindNot:
		if n.Child().Mode == ModePull {
			return fail("negation of a non-spontaneous event (%s) is not detectable", n.Child().Kind)
		}
		n.Mode = ModePull
	case KindOr:
		l, r := n.Left(), n.Right()
		if l.Mode == ModePull || r.Mode == ModePull {
			return fail("OR over a non-spontaneous constituent is not detectable")
		}
		if l.Mode == ModePush && r.Mode == ModePush {
			n.Mode = ModePush
		} else {
			n.Mode = ModeMixed
		}
	case KindAnd:
		l, r := n.Left(), n.Right()
		pulls := 0
		for i, c := range n.Children {
			if c.Mode == ModePull {
				pulls++
				if c.Kind != KindNot {
					return fail("AND conjunct %s is non-spontaneous; only NOT is supported as a pull conjunct", c.Kind)
				}
				n.NotChild = i
			}
		}
		switch {
		case pulls == 2:
			return fail("conjunction of two non-spontaneous events can never be detected")
		case pulls == 1:
			if !n.HasWithin && !n.Children[n.NotChild].HasNotWin {
				return fail("AND with a negated conjunct requires a WITHIN bound or a scoped negation (NOT E WITHIN w) to be detectable")
			}
			n.Mode = ModeMixed
		case l.Mode == ModePush && r.Mode == ModePush:
			n.Mode = ModePush
		default:
			n.Mode = ModeMixed
		}
	case KindSeq:
		l, r := n.Left(), n.Right()
		if l.Mode == ModePull {
			if _, ok := n.Bound(); !ok && !(l.Kind == KindNot && l.HasNotWin) {
				return fail("sequence with non-spontaneous initiator %s requires TSEQ bounds or a WITHIN constraint (or a scoped negation)", l.Kind)
			}
		}
		switch r.Mode {
		case ModePull:
			if r.Kind != KindNot {
				return fail("sequence terminator %s is non-spontaneous; only NOT is supported as a pull terminator", r.Kind)
			}
			if _, ok := n.Bound(); !ok && !r.HasNotWin {
				return fail("sequence with negated terminator requires TSEQ bounds or a WITHIN constraint (or a scoped negation)")
			}
			if l.Mode == ModePull {
				return fail("sequence of two non-spontaneous events can never be detected")
			}
			n.NotChild = 1
			n.Mode = ModeMixed
		default:
			n.Mode = r.Mode
		}
		if l.Kind == KindNot && r.Kind != KindNot {
			n.NotChild = 0
		}
	case KindSeqPlus:
		c := n.Child()
		if c.Mode == ModePull {
			return fail("SEQ+ over a non-spontaneous event is not detectable")
		}
		if n.HasDist {
			n.Mode = ModeMixed
		} else {
			n.Mode = ModePull
		}
	}
	if n.Guard != nil {
		if n.Kind == KindNot {
			return fail("a guard cannot be attached to a negation; guard the negated event instead")
		}
		avail := map[string]struct{}{}
		availableVars(n, avail)
		for _, v := range event.GuardVars(n.Guard) {
			if _, ok := avail[v]; !ok {
				return fail("guard references variable %s, which is not bound by the guarded event", v)
			}
		}
	}
	n.JoinVars = joinVars(n)
	n.key = canonicalKey(n)
	return nil
}

// availableVars collects the variables a guard on n may reference: every
// variable bound by a positive primitive in n's subtree (variables under
// SEQ+ appear as lists and aggregate; variables under NOT never bind and
// are excluded).
func availableVars(n *Node, set map[string]struct{}) {
	if n.Kind == KindNot {
		return
	}
	if n.Kind == KindPrim {
		for _, v := range n.Prim.Vars() {
			set[v] = struct{}{}
		}
	}
	for _, c := range n.Children {
		availableVars(c, set)
	}
}

// scalarVars returns the variables bound as scalars in n's subtree;
// variables bound inside SEQ+/TSEQ+ become list-valued above the sequence
// and are excluded from join compatibility.
func scalarVars(n *Node) map[string]struct{} {
	switch n.Kind {
	case KindPrim:
		set := map[string]struct{}{}
		for _, v := range n.Prim.Vars() {
			set[v] = struct{}{}
		}
		return set
	case KindSeqPlus:
		return map[string]struct{}{}
	case KindNot:
		// A negated child binds nothing, but its variables act as
		// filters against the positive side.
		return scalarVars(n.Child())
	case KindOr:
		// Only variables bound by every branch are guaranteed present
		// on an OR instance, so joins may use only the intersection.
		l := scalarVars(n.Left())
		r := scalarVars(n.Right())
		set := map[string]struct{}{}
		for v := range l {
			if _, ok := r[v]; ok {
				set[v] = struct{}{}
			}
		}
		return set
	default:
		set := map[string]struct{}{}
		for _, c := range n.Children {
			for v := range scalarVars(c) {
				set[v] = struct{}{}
			}
		}
		return set
	}
}

// joinVars computes the shared scalar variables between the two subtrees of
// a binary node.
func joinVars(n *Node) []string {
	if len(n.Children) != 2 {
		return nil
	}
	l := scalarVars(n.Left())
	r := scalarVars(n.Right())
	var shared []string
	for v := range l {
		if _, ok := r[v]; ok {
			shared = append(shared, v)
		}
	}
	sort.Strings(shared)
	return shared
}

// canonicalKey builds the structural hash key used for merging. It covers
// the constructor, the propagated constraints and the children's keys, so
// two nodes merge only when they would behave identically.
func canonicalKey(n *Node) string {
	var cons string
	if n.HasDist {
		cons += fmt.Sprintf("|D%d,%d", n.Lo, n.Hi)
	}
	if n.HasWithin {
		cons += fmt.Sprintf("|W%d", n.Within)
	}
	if n.HasNotWin {
		cons += fmt.Sprintf("|N%d", n.NotWin)
	}
	if n.Guard != nil {
		cons += "|G{" + n.Guard.String() + "}"
	}
	switch n.Kind {
	case KindPrim:
		return "P(" + n.Prim.String() + ")" + cons
	default:
		s := n.Kind.String() + "("
		for i, c := range n.Children {
			if i > 0 {
				s += ";"
			}
			s += c.key
		}
		return s + ")" + cons
	}
}

// intern merges the private tree rooted at n into the shared graph,
// reusing existing nodes with identical canonical keys when merging is
// enabled.
func (b *Builder) intern(n *Node) *Node {
	for i, c := range n.Children {
		n.Children[i] = b.intern(c)
	}
	if b.merge {
		if exist, ok := b.g.ByKey[n.key]; ok {
			// Drop n; re-point its children's parent links to exist
			// (the children are already the shared instances, and
			// exist is already their parent).
			return exist
		}
	}
	n.ID = b.next
	b.next++
	b.g.Nodes = append(b.g.Nodes, n)
	if n.Kind == KindPrim {
		b.g.Prims = append(b.g.Prims, n)
	}
	if b.merge {
		b.g.ByKey[n.key] = n
	} else {
		// Still index by a unique key so ByKey stays usable.
		b.g.ByKey[fmt.Sprintf("%s#%d", n.key, n.ID)] = n
	}
	for _, c := range n.Children {
		// A node occupying both child slots (e.g. SEQ(E, E)) still gets a
		// single parent link; the engine handles self-pairing explicitly.
		if len(c.Parents) == 0 || c.Parents[len(c.Parents)-1] != n {
			c.Parents = append(c.Parents, n)
		}
	}
	return n
}

// assignPseudo sets pseudo-event flags top-down (paper §4.5): a node
// schedules pseudo events when its completion depends on future
// non-arrival and some consumer needs it to push.
func (b *Builder) assignPseudo() {
	for _, n := range b.g.Nodes {
		n.Pseudo, n.Strategy = false, PseudoNone
		switch {
		case n.Kind == KindSeqPlus && n.HasDist && b.needsPush(n):
			// TSEQ+ must actively close its open sequence when no
			// further element arrives within Hi.
			n.Pseudo, n.Strategy = true, PseudoSeqPlusClose
		case n.Kind == KindAnd && n.NotChild >= 0:
			n.Pseudo, n.Strategy = true, PseudoAndNotExpire
		case n.Kind == KindSeq && n.NotChild == 1:
			n.Pseudo, n.Strategy = true, PseudoSeqNotTerm
		}
	}
}

// needsPush reports whether any consumer of n requires spontaneous
// propagation: n is a rule root, or a parent combines it in push fashion
// (OR/AND conjunct, SEQ terminator, or NOT history recording). A TSEQ+
// that is only ever the pulled initiator of a TSEQ can be closed lazily at
// query time, with no pseudo events (paper §4.5's top-down assignment).
func (b *Builder) needsPush(n *Node) bool {
	if n.IsRoot() {
		return true
	}
	for _, p := range n.Parents {
		switch p.Kind {
		case KindOr, KindAnd, KindNot:
			return true
		case KindSeq:
			if p.Right() == n {
				return true
			}
		case KindSeqPlus:
			return true
		}
	}
	return false
}

// assignHistory marks nodes that must retain occurrence history for window
// queries and computes a conservative retention horizon for each.
func (b *Builder) assignHistory() {
	for _, n := range b.g.Nodes {
		n.NeedsHistory = false
		n.Retention = 0
	}
	for _, n := range b.g.Nodes {
		switch n.Kind {
		case KindNot:
			c := n.Child()
			c.NeedsHistory = true
			c.Retention = max(c.Retention, b.lookback(n))
		case KindSeqPlus:
			if n.Mode == ModePull {
				// Pull SEQ+ answers queries from its child's history.
				c := n.Child()
				c.NeedsHistory = true
				c.Retention = max(c.Retention, b.lookback(n))
			}
		case KindSeq:
			if l := n.Left(); l.Kind == KindSeqPlus {
				// Pulled SEQ+/TSEQ+ initiators are queried (and TSEQ+
				// lazily closed) on terminator arrival.
				l.NeedsHistory = true
				l.Retention = max(l.Retention, b.lookback(n))
			}
		}
	}
	// An infield scoped NOT under an unbounded SEQ answers [begin−w,
	// begin−1] queries for terminators arbitrarily far in the future, so
	// its child's history cannot be age-pruned: Retention 0 with
	// NeedsHistory keeps entries until the MaxHistory cap. This pass runs
	// last so a bounded sibling protocol cannot re-shrink the horizon.
	for _, n := range b.g.Nodes {
		if n.Kind != KindNot || !n.HasNotWin {
			continue
		}
		for _, p := range n.Parents {
			if p.Kind == KindSeq && p.NotChild == 0 && p.Left() == n {
				if _, ok := p.Bound(); !ok {
					n.Child().Retention = 0
				}
			}
		}
	}
}

// lookback estimates how far back queries routed through n can reach:
// twice the tightest bound of each pulling parent protocol, accumulated up
// the graph. The factor two covers the Fig. 8 protocol, whose query window
// [t_end(p)−τ, t_begin(p)+τ] spans up to 2τ before execution time.
func (b *Builder) lookback(n *Node) time.Duration {
	var need time.Duration
	if bnd, ok := n.Bound(); ok {
		need = 2 * bnd
	}
	if n.HasNotWin && 2*n.NotWin > need {
		// Scoped negation queries a NotWin-wide window anchored at the
		// positive payload, independent of any parent bound.
		need = 2 * n.NotWin
	}
	var above time.Duration
	for _, p := range n.Parents {
		above = max(above, b.lookback(p))
	}
	return need + above
}
