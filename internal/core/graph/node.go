// Package graph compiles complex event expressions into the event graph
// used by the RCEDA detection engine (paper §4.3–§4.5): leaf nodes are
// primitive event patterns, internal nodes are constructors, WITHIN
// interval constraints are propagated top-down, detection modes
// (push/pull/mixed) are assigned bottom-up, pseudo-event generation flags
// are assigned top-down, and common sub-graphs across rules are merged.
package graph

import (
	"fmt"
	"hash/fnv"
	"time"

	"rcep/internal/core/event"
)

// Kind identifies a node's constructor. WITHIN does not get a node of its
// own: it becomes an interval constraint on its operand (paper §4.3).
// TSEQ and TSEQ+ are Seq and SeqPlus nodes with a distance constraint.
type Kind uint8

// Node kinds.
const (
	KindPrim Kind = iota
	KindOr
	KindAnd
	KindNot
	KindSeq
	KindSeqPlus
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPrim:
		return "PRIM"
	case KindOr:
		return "OR"
	case KindAnd:
		return "AND"
	case KindNot:
		return "NOT"
	case KindSeq:
		return "SEQ"
	case KindSeqPlus:
		return "SEQ+"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Mode is a node's detection mode (paper §4.4).
type Mode uint8

// Detection modes. Push nodes propagate occurrences spontaneously; pull
// nodes must be queried; mixed nodes need pseudo events to complete.
const (
	ModePush Mode = iota
	ModePull
	ModeMixed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePush:
		return "push"
	case ModePull:
		return "pull"
	case ModeMixed:
		return "mixed"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// PseudoStrategy tells the engine why a node generates pseudo events.
type PseudoStrategy uint8

// Pseudo-event strategies (paper §4.5).
const (
	// PseudoNone: the node never schedules pseudo events.
	PseudoNone PseudoStrategy = iota
	// PseudoSeqPlusClose: a TSEQ+ node closes its open sequence when Hi
	// elapses after the last element with no new arrival.
	PseudoSeqPlusClose
	// PseudoAndNotExpire: AND(P, ¬N) under WITHIN τ; on a positive
	// instance p, a pseudo event at t_begin(p)+τ queries the negated
	// child over [t_end(p), t_begin(p)+τ] (paper Fig. 8).
	PseudoAndNotExpire
	// PseudoSeqNotTerm: SEQ(P; ¬N) with a bound; a pseudo event at
	// t_end(p)+bound confirms non-occurrence of N after p (outfield).
	PseudoSeqNotTerm
)

// String implements fmt.Stringer.
func (s PseudoStrategy) String() string {
	switch s {
	case PseudoNone:
		return "none"
	case PseudoSeqPlusClose:
		return "seqplus-close"
	case PseudoAndNotExpire:
		return "and-not-expire"
	case PseudoSeqNotTerm:
		return "seq-not-term"
	}
	return fmt.Sprintf("pseudo(%d)", uint8(s))
}

// Node is one vertex of the event graph.
type Node struct {
	ID   int
	Kind Kind

	// Prim is the observation pattern for KindPrim leaves.
	Prim *event.Prim

	// Children holds the constituent nodes: two for Or/And/Seq (left,
	// right), one for Not/SeqPlus, none for Prim.
	Children []*Node
	// Parents holds every node this one feeds; a merged node can have
	// parents from several rules.
	Parents []*Node

	// Within is the propagated interval constraint; valid iff HasWithin.
	Within    time.Duration
	HasWithin bool

	// Lo, Hi are the distance bounds for TSEQ / TSEQ+; valid iff HasDist.
	Lo, Hi  time.Duration
	HasDist bool

	// NotWin is the scoped negation window for KindNot nodes
	// (NOT E WITHIN w); valid iff HasNotWin. A scoped NOT asserts
	// absence over a NotWin-wide window anchored at the adjacent
	// positive constituent, independent of any WITHIN on the parent.
	NotWin    time.Duration
	HasNotWin bool

	// Guard is the conjunction of WHERE predicates attached to this
	// node's expression: a value-level filter over the instance
	// bindings (inequalities, arithmetic, aggregates over SEQ+ runs).
	// Nil when unguarded. Guards filter; they never bind.
	Guard event.GExpr

	// Mode is the detection mode assigned bottom-up (paper §4.4).
	Mode Mode

	// Pseudo tells the engine this node (or its parent protocol)
	// schedules pseudo events; Strategy says which protocol.
	Pseudo   bool
	Strategy PseudoStrategy

	// NotChild is the index in Children of a NOT child for And/Seq
	// nodes, or -1.
	NotChild int

	// JoinVars are the scalar variables shared by both subtrees of a
	// binary node; instances pair only when these agree.
	JoinVars []string

	// NeedsHistory marks nodes whose instance occurrences must be
	// retained for window queries (children of NOT, children of pull
	// SEQ+ nodes).
	NeedsHistory bool

	// Retention bounds how far back queries against this node's history
	// can reach; the engine prunes older entries. Zero means the node
	// keeps no history; a negative value would be a bug.
	Retention time.Duration

	// Rules lists the IDs of rules whose event part is rooted here.
	Rules []int

	// key is the canonical form used for common sub-graph merging.
	key string
}

// IsRoot reports whether any rule's event part is rooted at n.
func (n *Node) IsRoot() bool { return len(n.Rules) > 0 }

// Left returns the first child (initiator for Seq).
func (n *Node) Left() *Node { return n.Children[0] }

// Right returns the second child (terminator for Seq).
func (n *Node) Right() *Node { return n.Children[1] }

// Child returns the only child of Not/SeqPlus nodes.
func (n *Node) Child() *Node { return n.Children[0] }

// Bound returns the tightest finite lookback bound available on n: the
// distance upper bound if present, else the within constraint. ok is false
// when the node is unbounded.
func (n *Node) Bound() (time.Duration, bool) {
	switch {
	case n.HasDist:
		return n.Hi, true
	case n.HasWithin:
		return n.Within, true
	}
	return 0, false
}

// String renders the node for diagnostics.
func (n *Node) String() string {
	s := fmt.Sprintf("#%d %s", n.ID, n.Kind)
	if n.Kind == KindPrim {
		s += " " + n.Prim.String()
	}
	if n.HasDist {
		s += fmt.Sprintf(" dist[%s,%s]", event.FormatDuration(n.Lo), event.FormatDuration(n.Hi))
	}
	if n.HasWithin {
		s += fmt.Sprintf(" within[%s]", event.FormatDuration(n.Within))
	}
	s += " " + n.Mode.String()
	if n.Pseudo {
		s += " pseudo:" + n.Strategy.String()
	}
	return s
}

// Graph is the merged event graph for a set of rules.
type Graph struct {
	Nodes []*Node          // all nodes, in creation order (children first)
	Prims []*Node          // leaf nodes, subset of Nodes
	Roots map[int]*Node    // rule ID → root node
	ByKey map[string]*Node // canonical key → node (merging index)
}

// Fingerprint identifies the graph's exact structure and constraints:
// engine checkpoints refuse to restore onto a graph with a different
// fingerprint (node IDs and semantics must line up).
func (g *Graph) Fingerprint() string {
	h := fnv.New64a()
	for _, n := range g.Nodes {
		fmt.Fprintf(h, "%d:%s;", n.ID, n.key)
		fmt.Fprintf(h, "r%v;", n.Rules)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
