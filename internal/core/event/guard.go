package event

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// GExpr is a guard expression: a value-level predicate attached to an
// event sub-expression with WHERE. Guards compare and combine constituent
// bindings (`WHERE t2 > t1 + 5`) and aggregate over SEQ+ runs
// (`WHERE MAX(v) > 8`). Unlike the structural Expr tree, a guard never
// introduces bindings — it only filters.
type GExpr interface {
	fmt.Stringer
	isGuard()
}

// GuardOp enumerates guard operators: boolean connectives, comparisons
// and arithmetic.
type GuardOp uint8

const (
	GuardOr GuardOp = iota
	GuardAnd
	GuardEq
	GuardNe
	GuardLt
	GuardLe
	GuardGt
	GuardGe
	GuardAdd
	GuardSub
	GuardMul
	GuardDiv
)

var guardOpNames = [...]string{"OR", "AND", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"}

func (op GuardOp) String() string {
	if int(op) < len(guardOpNames) {
		return guardOpNames[op]
	}
	return "?"
}

// GVar references a variable bound by the guarded event (or, for SEQ+
// operands, the per-element value).
type GVar struct{ Name string }

// GLit is a literal: int, float (durations parse to seconds) or string.
type GLit struct{ V Value }

// GAgg aggregates a variable's values over a SEQ+ run (or, fed a scalar,
// over that single value).
type GAgg struct {
	Op   AggOp
	Name string
}

// GNot is boolean negation.
type GNot struct{ X GExpr }

// GNeg is arithmetic negation.
type GNeg struct{ X GExpr }

// GBin is a binary operation.
type GBin struct {
	Op   GuardOp
	L, R GExpr
}

func (*GVar) isGuard() {}
func (*GLit) isGuard() {}
func (*GAgg) isGuard() {}
func (*GNot) isGuard() {}
func (*GNeg) isGuard() {}
func (*GBin) isGuard() {}

func (g *GVar) String() string { return g.Name }

func (g *GLit) String() string {
	v := g.V
	switch v.Kind() {
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		// Decimal form (no exponent) so the printed literal always
		// re-lexes as a Number token.
		return strconv.FormatFloat(v.Float(), 'f', -1, 64)
	case KindBool:
		// The guard grammar has no boolean literal; print an equivalent
		// parenthesized comparison so API-built trees stay parseable.
		if v.Bool() {
			return "(0 < 1)"
		}
		return "(1 < 0)"
	default:
		return "'" + strings.ReplaceAll(v.String(), "'", "''") + "'"
	}
}

func (g *GAgg) String() string { return g.Op.String() + "(" + g.Name + ")" }
func (g *GNot) String() string { return "NOT " + g.X.String() }
func (g *GNeg) String() string { return "-" + g.X.String() }
func (g *GBin) String() string {
	return "(" + g.L.String() + " " + g.Op.String() + " " + g.R.String() + ")"
}

// GConj conjoins two guards; either side may be nil.
func GConj(a, b GExpr) GExpr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &GBin{Op: GuardAnd, L: a, R: b}
}

// GuardLookup resolves a guard variable to its bound value.
type GuardLookup func(name string) (Value, bool)

// BindsLookup adapts a binding set to a GuardLookup.
func BindsLookup(b Bindings) GuardLookup {
	return func(name string) (Value, bool) { return b.Get(name) }
}

// PairLookup resolves against primary first, then fallback — the same
// precedence Bindings.Merge gives the arriving instance when two
// constituents join.
func PairLookup(primary, fallback Bindings) GuardLookup {
	return func(name string) (Value, bool) {
		if v, ok := primary.Get(name); ok {
			return v, true
		}
		return fallback.Get(name)
	}
}

// GuardNum widens a value to float64 for guard arithmetic: ints, floats,
// timestamps (seconds) and numeric payload strings qualify.
func GuardNum(v Value) (float64, bool) {
	switch v.Kind() {
	case KindInt:
		return float64(v.Int()), true
	case KindFloat:
		return v.Float(), true
	case KindTime:
		return float64(int64(v.Time())) / 1e9, true
	case KindString:
		p := ParseScalar(v.Str())
		switch p.Kind() {
		case KindInt:
			return float64(p.Int()), true
		case KindFloat:
			return p.Float(), true
		}
	}
	return 0, false
}

// GuardNegate is unary minus: non-numeric operands yield Null.
func GuardNegate(v Value) Value {
	if f, ok := GuardNum(v); ok {
		if v.Kind() == KindInt {
			return IntValue(-v.Int())
		}
		return FloatValue(-f)
	}
	return Null
}

// GuardArith applies +, -, *, / with numeric widening. A non-numeric
// operand or division by zero yields Null (which no comparison passes),
// mirroring SQL's null propagation rather than erroring mid-stream.
func GuardArith(op GuardOp, l, r Value) Value {
	lf, lok := GuardNum(l)
	rf, rok := GuardNum(r)
	if !lok || !rok {
		return Null
	}
	var out float64
	switch op {
	case GuardAdd:
		out = lf + rf
	case GuardSub:
		out = lf - rf
	case GuardMul:
		out = lf * rf
	case GuardDiv:
		if rf == 0 {
			return Null
		}
		out = lf / rf
	default:
		return Null
	}
	// Integer arithmetic stays integral except for division.
	if op != GuardDiv && l.Kind() == KindInt && r.Kind() == KindInt {
		return IntValue(int64(out))
	}
	return FloatValue(out)
}

// GuardCompare compares two values for a guard: numeric comparison when
// both sides widen (so "27.5" > 8 holds for payload strings), otherwise
// the family-aware Value.Compare; incomparable or Null operands fail.
func GuardCompare(op GuardOp, l, r Value) bool {
	if l.IsNull() || r.IsNull() {
		return false
	}
	var cmp int
	if lf, lok := GuardNum(l); lok {
		if rf, rok := GuardNum(r); rok {
			switch {
			case lf < rf:
				cmp = -1
			case lf > rf:
				cmp = 1
			}
			return guardCmpOp(op, cmp)
		}
	}
	cmp, ok := l.Compare(r)
	if !ok {
		return false
	}
	return guardCmpOp(op, cmp)
}

func guardCmpOp(op GuardOp, cmp int) bool {
	switch op {
	case GuardEq:
		return cmp == 0
	case GuardNe:
		return cmp != 0
	case GuardLt:
		return cmp < 0
	case GuardLe:
		return cmp <= 0
	case GuardGt:
		return cmp > 0
	case GuardGe:
		return cmp >= 0
	}
	return false
}

// GuardTruthy decides whether a guard result passes: booleans directly,
// numbers by non-zero, strings by non-empty, lists by non-empty, Null
// never.
func GuardTruthy(v Value) bool {
	switch v.Kind() {
	case KindBool:
		return v.Bool()
	case KindInt:
		return v.Int() != 0
	case KindFloat:
		return v.Float() != 0
	case KindTime:
		return true
	case KindString:
		return v.Str() != ""
	case KindList:
		return v.Len() > 0
	}
	return false
}

// GuardVars lists every variable a guard references (plain or
// aggregated), sorted and deduplicated.
func GuardVars(g GExpr) []string {
	set := map[string]bool{}
	guardWalk(g, func(x GExpr) {
		switch n := x.(type) {
		case *GVar:
			set[n.Name] = true
		case *GAgg:
			set[n.Name] = true
		}
	})
	return sortedKeys(set)
}

// GuardAggVars lists the variables a guard aggregates over, sorted and
// deduplicated. These are the accumulator targets for SEQ+ runs.
func GuardAggVars(g GExpr) []string {
	set := map[string]bool{}
	guardWalk(g, func(x GExpr) {
		if n, ok := x.(*GAgg); ok {
			set[n.Name] = true
		}
	})
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func guardWalk(g GExpr, visit func(GExpr)) {
	if g == nil {
		return
	}
	visit(g)
	switch n := g.(type) {
	case *GNot:
		guardWalk(n.X, visit)
	case *GNeg:
		guardWalk(n.X, visit)
	case *GBin:
		guardWalk(n.L, visit)
		guardWalk(n.R, visit)
	}
}
