package detect

import (
	"math/rand"
	"testing"
	"time"

	"rcep/internal/core/event"
)

// Guard-program reference: a direct tree fold over event's guard helpers.
// Missing variables evaluate to Null, and Null propagates to false — a
// guard over an unbound variable never passes. That includes an aggregate
// over a variable the instance left unbound (one side of an OR): it is
// Null, not the aggregate of an empty run.

// foldGuard walks the guard tree and returns its value.
func foldGuard(g event.GExpr, lk event.GuardLookup) event.Value {
	switch n := g.(type) {
	case *event.GLit:
		return n.V
	case *event.GVar:
		v, _ := lk(n.Name)
		return v
	case *event.GAgg:
		v, ok := lk(n.Name)
		if !ok {
			return event.Null
		}
		out, err := event.FoldAgg(n.Op, v)
		if err != nil {
			return event.Null
		}
		return out
	case *event.GNot:
		return event.BoolValue(!event.GuardTruthy(foldGuard(n.X, lk)))
	case *event.GNeg:
		return event.GuardNegate(foldGuard(n.X, lk))
	case *event.GBin:
		switch n.Op {
		case event.GuardAnd:
			if !event.GuardTruthy(foldGuard(n.L, lk)) {
				return event.BoolValue(false)
			}
			return event.BoolValue(event.GuardTruthy(foldGuard(n.R, lk)))
		case event.GuardOr:
			if event.GuardTruthy(foldGuard(n.L, lk)) {
				return event.BoolValue(true)
			}
			return event.BoolValue(event.GuardTruthy(foldGuard(n.R, lk)))
		case event.GuardEq, event.GuardNe, event.GuardLt, event.GuardLe, event.GuardGt, event.GuardGe:
			return event.BoolValue(event.GuardCompare(n.Op, foldGuard(n.L, lk), foldGuard(n.R, lk)))
		default:
			return event.GuardArith(n.Op, foldGuard(n.L, lk), foldGuard(n.R, lk))
		}
	}
	return event.Null
}

// guardBytes decodes fuzz input into guard trees and bindings; past the
// end of the input every draw is zero, so any input decodes.
type guardBytes struct {
	b []byte
	i int
}

func (g *guardBytes) next() int {
	if g.i >= len(g.b) {
		return 0
	}
	g.i++
	return int(g.b[g.i-1])
}

var guardVars = []string{"a", "b", "c", "d", "e"}

// scalar draws a value of every kind a binding or literal can hold: ints,
// floats, numeric and non-numeric strings, timestamps, booleans and Null.
func (g *guardBytes) scalar() event.Value {
	k, x := g.next()%8, int64(g.next()%7)-3
	switch k {
	case 0:
		return event.IntValue(x)
	case 1:
		return event.FloatValue(float64(x) / 2)
	case 2:
		return event.StringValue([]string{"-1", "0", "2.5", "3"}[x&3])
	case 3:
		return event.StringValue([]string{"word", "", "a", "b"}[x&3])
	case 4:
		return event.TimeValue(event.Time(x) * event.Time(time.Second))
	case 5:
		return event.BoolValue(x > 0)
	case 6:
		return event.Null
	}
	return event.IntValue(x * 1000)
}

// value adds list values — the SEQ+ collections aggregates fold.
func (g *guardBytes) value() event.Value {
	if g.next()%4 != 0 {
		return g.scalar()
	}
	elems := make([]event.Value, g.next()%5)
	for i := range elems {
		elems[i] = g.scalar()
	}
	return event.ListValue(elems)
}

func (g *guardBytes) expr(depth int) event.GExpr {
	k := g.next() % 6
	if depth >= 4 {
		k %= 3
	}
	name := guardVars[g.next()%len(guardVars)]
	switch k {
	case 0:
		return &event.GLit{V: g.scalar()}
	case 1:
		return &event.GVar{Name: name}
	case 2:
		return &event.GAgg{Op: event.AggOp(g.next() % 5), Name: name}
	case 3:
		return &event.GNot{X: g.expr(depth + 1)}
	case 4:
		return &event.GNeg{X: g.expr(depth + 1)}
	}
	op := event.GuardOp(g.next() % (int(event.GuardDiv) + 1))
	return &event.GBin{Op: op, L: g.expr(depth + 1), R: g.expr(depth + 1)}
}

func (g *guardBytes) bindings() event.Bindings {
	var b event.Bindings
	for _, v := range guardVars {
		if g.next()%5 != 0 {
			b = b.Set(v, g.value())
		}
	}
	return b
}

func sameGuardValue(a, b event.Value) bool {
	return a.Kind() == b.Kind() && a.Equal(b)
}

// FuzzGuardProgramMatchesTreeFold holds compileGuard's closure programs
// to the tree fold on random guard trees — every GuardOp, GAgg over every
// AggOp, GNot, GNeg, mixed kinds and nulls — over random bindings, list
// values included. Where every aggregated variable is bound to a list,
// the program also runs against running accumulators fed the list's
// elements, as an open SEQ+ sequence feeds them.
func FuzzGuardProgramMatchesTreeFold(f *testing.F) {
	// Every operator over two equal literals of each numeric-comparable
	// kind: the boundary where < and <=, > and >=, = and != part.
	for op := byte(0); op <= byte(event.GuardDiv); op++ {
		for _, kind := range []byte{0, 1, 2, 4} {
			f.Add([]byte{5, 0, op, 0, 0, kind, 4, 0, 0, kind, 4})
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		seed := make([]byte, 24+r.Intn(72))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &guardBytes{b: data}
		g := src.expr(0)
		binds := src.bindings()
		lk := event.BindsLookup(binds)
		aggVars := event.GuardAggVars(g)
		idx := make(map[string]int, len(aggVars))
		for i, v := range aggVars {
			idx[v] = i
		}
		prog := compileGuard(g, idx)
		want := foldGuard(g, lk)
		if got := prog(&guardCtx{lk: lk}); !sameGuardValue(got, want) {
			t.Fatalf("%s over %s: program %v (%v), tree fold %v (%v)", g, binds, got, got.Kind(), want, want.Kind())
		}
		accs := make([]event.AggAcc, len(aggVars))
		for i, v := range aggVars {
			col, ok := binds.Get(v)
			if !ok || col.Kind() != event.KindList {
				return
			}
			for _, el := range col.List() {
				accs[i].Add(event.CoerceScalar(el))
			}
		}
		if got := prog(&guardCtx{lk: lk, accs: accs}); !sameGuardValue(got, want) {
			t.Fatalf("%s over %s with accumulators: program %v (%v), tree fold %v (%v)", g, binds, got, got.Kind(), want, want.Kind())
		}
	})
}
