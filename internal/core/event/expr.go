package event

import (
	"fmt"
	"strings"
	"time"
)

// Expr is the abstract syntax of a complex event specification. The
// concrete constructors mirror the paper's §2.2: Prim (observation
// patterns), Or, And, Not, Seq, TSeq, SeqPlus, TSeqPlus and Within.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// CmpOp is a comparison operator in event predicates.
type CmpOp uint8

// Supported predicate comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Eval applies the operator to a comparison result as returned by
// Value.Compare.
func (op CmpOp) Eval(cmp int) bool {
	switch op {
	case CmpEq:
		return cmp == 0
	case CmpNe:
		return cmp != 0
	case CmpLt:
		return cmp < 0
	case CmpLe:
		return cmp <= 0
	case CmpGt:
		return cmp > 0
	case CmpGe:
		return cmp >= 0
	}
	return false
}

// Term is an argument position in an observation pattern: either a variable
// to bind or a literal constraining the attribute.
type Term struct {
	Var string // variable name when non-empty
	Lit string // literal value when Var == ""
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String implements fmt.Stringer.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	if t.Lit == "" {
		// Anonymous position (the struct cannot distinguish an empty
		// literal from '_'; both match like '_').
		return "_"
	}
	return "'" + strings.ReplaceAll(t.Lit, "'", "''") + "'"
}

// Pred is an attribute predicate on a primitive event pattern, such as
// type(o) = 'laptop' or group(r) = 'g1' (paper §2.1).
type Pred struct {
	Fn  string // "", "group" or "type"
	Arg string // the variable the function applies to
	Op  CmpOp
	Val string
}

// String implements fmt.Stringer.
func (p Pred) String() string {
	lhs := p.Arg
	if p.Fn != "" {
		lhs = p.Fn + "(" + p.Arg + ")"
	}
	return fmt.Sprintf("%s %s '%s'", lhs, p.Op, strings.ReplaceAll(p.Val, "'", "''"))
}

// Prim is a primitive event pattern: observation(reader, object, time) with
// optional group/type predicates. Variables in Reader/Object/At positions
// bind the corresponding observation attributes.
type Prim struct {
	Reader Term
	Object Term
	At     Term // always a variable or anonymous; observations carry the time
	Preds  []Pred
}

func (*Prim) isExpr() {}

// String renders the pattern in the paper's syntax.
func (p *Prim) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "observation(%s, %s, %s)", p.Reader, p.Object, p.At)
	for _, pr := range p.Preds {
		sb.WriteString(", ")
		sb.WriteString(pr.String())
	}
	return sb.String()
}

// Vars returns the variables bound by the pattern.
func (p *Prim) Vars() []string {
	var vars []string
	for _, t := range []Term{p.Reader, p.Object, p.At} {
		if t.IsVar() {
			vars = append(vars, t.Var)
		}
	}
	return vars
}

// Or is the disjunction E1 ∨ E2: occurs when either constituent occurs.
type Or struct{ L, R Expr }

func (*Or) isExpr() {}

// String implements fmt.Stringer.
func (e *Or) String() string { return "(" + e.L.String() + " OR " + e.R.String() + ")" }

// And is the conjunction E1 ∧ E2: occurs when both constituents occur,
// regardless of order.
type And struct{ L, R Expr }

func (*And) isExpr() {}

// String implements fmt.Stringer.
func (e *And) String() string { return "(" + e.L.String() + " AND " + e.R.String() + ")" }

// Not is the negation ¬E: occurs over a window iff no instance of E occurs
// in that window. Negation is non-spontaneous (pull mode).
//
// Win, when positive, scopes the negation to its own window (written
// `NOT E WITHIN w`): the absence of E is asserted over a w-wide window
// anchored at the adjacent positive constituent, independent of any
// WITHIN/TSEQ bound on the enclosing expression. Win = 0 is classic
// unscoped negation.
type Not struct {
	X   Expr
	Win time.Duration
}

func (*Not) isExpr() {}

// String implements fmt.Stringer.
func (e *Not) String() string {
	if e.Win > 0 {
		return "NOT " + e.X.String() + " WITHIN " + FormatDuration(e.Win)
	}
	return "NOT " + e.X.String()
}

// Guarded attaches a value predicate to an event sub-expression:
// X WHERE Cond. The guard filters X's occurrences by their bindings —
// inequality and arithmetic relations between constituents, and
// aggregates over SEQ+ runs — without introducing new bindings.
type Guarded struct {
	X    Expr
	Cond GExpr
}

func (*Guarded) isExpr() {}

// String implements fmt.Stringer.
func (e *Guarded) String() string { return e.X.String() + " WHERE " + e.Cond.String() }

// Seq is the sequence E1 ; E2: occurs when E2 occurs given that E1 has
// already occurred (E1 ends before E2 begins).
type Seq struct{ L, R Expr }

func (*Seq) isExpr() {}

// String implements fmt.Stringer.
func (e *Seq) String() string { return "SEQ(" + e.L.String() + " ; " + e.R.String() + ")" }

// TSeq is the distance-constrained sequence TSEQ(E1;E2, τl, τu):
// τl ≤ dist(e1, e2) ≤ τu.
type TSeq struct {
	L, R   Expr
	Lo, Hi time.Duration
}

func (*TSeq) isExpr() {}

// String implements fmt.Stringer.
func (e *TSeq) String() string {
	return fmt.Sprintf("TSEQ(%s ; %s, %s, %s)", e.L, e.R, e.Lo, e.Hi)
}

// SeqPlus is the aperiodic sequence SEQ+(E): one or more occurrences of E.
type SeqPlus struct{ X Expr }

func (*SeqPlus) isExpr() {}

// String implements fmt.Stringer.
func (e *SeqPlus) String() string { return "SEQ+(" + e.X.String() + ")" }

// TSeqPlus is the distance-constrained aperiodic sequence
// TSEQ+(E, τl, τu): one or more occurrences of E with the distance between
// adjacent occurrences bounded by [τl, τu].
type TSeqPlus struct {
	X      Expr
	Lo, Hi time.Duration
}

func (*TSeqPlus) isExpr() {}

// String implements fmt.Stringer.
func (e *TSeqPlus) String() string {
	return fmt.Sprintf("TSEQ+(%s, %s, %s)", e.X, e.Lo, e.Hi)
}

// Within is the interval-constrained event WITHIN(E, τ): an instance of E
// occurs and interval(e) ≤ τ. In the event graph Within is not a node of
// its own; it attaches an interval constraint to E's node, which is then
// propagated to all descendants (paper §4.3).
type Within struct {
	X   Expr
	Max time.Duration
}

func (*Within) isExpr() {}

// String implements fmt.Stringer.
func (e *Within) String() string { return fmt.Sprintf("WITHIN(%s, %s)", e.X, e.Max) }

// Walk visits e and every sub-expression in depth-first pre-order. The
// visitor may return false to prune the subtree.
func Walk(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *Prim:
	case *Or:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *And:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *Not:
		Walk(x.X, visit)
	case *Guarded:
		Walk(x.X, visit)
	case *Seq:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *TSeq:
		Walk(x.L, visit)
		Walk(x.R, visit)
	case *SeqPlus:
		Walk(x.X, visit)
	case *TSeqPlus:
		Walk(x.X, visit)
	case *Within:
		Walk(x.X, visit)
	}
}
