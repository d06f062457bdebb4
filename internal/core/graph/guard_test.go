package graph

import (
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
)

func gp(reader, obj, at string) *event.Prim {
	return &event.Prim{
		Reader: event.Term{Lit: reader},
		Object: event.Term{Var: obj},
		At:     event.Term{Var: at},
	}
}

func gtCond(l, r string) event.GExpr {
	return &event.GBin{Op: event.GuardGt, L: &event.GVar{Name: l}, R: &event.GVar{Name: r}}
}

func TestGuardedSeqBuildsWithKey(t *testing.T) {
	b := NewBuilder()
	expr := &event.Within{
		X: &event.Guarded{
			X:    &event.Seq{L: gp("s", "v1", "t1"), R: gp("s", "v2", "t2")},
			Cond: gtCond("v2", "v1"),
		},
		Max: time.Minute,
	}
	root, err := b.AddRule(0, expr)
	if err != nil {
		t.Fatal(err)
	}
	if root.Guard == nil {
		t.Fatal("guard not attached to root")
	}
	if !strings.Contains(root.key, "|G{") {
		t.Fatalf("canonical key %q lacks guard suffix", root.key)
	}

	// The same structure without a guard must not merge with it.
	b2 := NewBuilder()
	r1, err := b2.AddRule(0, expr)
	if err != nil {
		t.Fatal(err)
	}
	plain := &event.Within{
		X:   &event.Seq{L: gp("s", "v1", "t1"), R: gp("s", "v2", "t2")},
		Max: time.Minute,
	}
	r2, err := b2.AddRule(1, plain)
	if err != nil {
		t.Fatal(err)
	}
	if r2 == r1 {
		t.Fatal("guarded and unguarded roots merged")
	}
}

func TestScopedNegationValidation(t *testing.T) {
	mk := func(win time.Duration) *event.Seq {
		return &event.Seq{
			L: gp("ck", "b", "t1"),
			R: &event.Not{X: gp("ld", "b", "t2"), Win: win},
		}
	}
	// Unscoped negated terminator without bounds stays invalid.
	if _, err := NewBuilder().AddRule(0, mk(0)); err == nil {
		t.Fatal("unbounded negated terminator accepted")
	}
	// Scoped negation needs no outer bound.
	root, err := NewBuilder().AddRule(0, mk(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	neg := root.Right()
	if !neg.HasNotWin || neg.NotWin != 5*time.Minute {
		t.Fatalf("NotWin not set: %+v", neg)
	}
	if !strings.Contains(neg.key, "|N") {
		t.Fatalf("canonical key %q lacks scoped-negation suffix", neg.key)
	}

	// Scoped NOT as an AND conjunct without WITHIN.
	and := &event.And{
		L: gp("a", "x", "t1"),
		R: &event.Not{X: gp("b", "x", "t2"), Win: 30 * time.Second},
	}
	if _, err := NewBuilder().AddRule(0, and); err != nil {
		t.Fatalf("scoped AND negation rejected: %v", err)
	}

	// Infield scoped NOT under an unbounded SEQ: valid, and the negated
	// child's history is never age-pruned.
	infield := &event.Seq{
		L: &event.Not{X: gp("ck", "b", "t1"), Win: 10 * time.Minute},
		R: gp("ld", "b", "t2"),
	}
	b := NewBuilder()
	if _, err := b.AddRule(0, infield); err != nil {
		t.Fatalf("infield scoped negation rejected: %v", err)
	}
	g := b.Finalize()
	var negChild *Node
	for _, n := range g.Nodes {
		if n.Kind == KindNot {
			negChild = n.Child()
		}
	}
	if negChild == nil || !negChild.NeedsHistory {
		t.Fatal("negated child lacks history")
	}
	if negChild.Retention != 0 {
		t.Fatalf("infield scoped NOT child retention = %v, want unbounded (0)", negChild.Retention)
	}
}

func TestGuardValidationErrors(t *testing.T) {
	// Guard on a negation node.
	bad := &event.Within{
		X: &event.And{
			L: gp("a", "x", "t1"),
			R: &event.Guarded{
				X:    &event.Not{X: gp("b", "x", "t2")},
				Cond: gtCond("x", "x"),
			},
		},
		Max: time.Minute,
	}
	if _, err := NewBuilder().AddRule(0, bad); err == nil ||
		!strings.Contains(err.Error(), "guard cannot be attached to a negation") {
		t.Fatalf("guard-on-negation error = %v", err)
	}

	// Guard referencing a variable the event does not bind.
	unbound := &event.Guarded{X: gp("a", "x", "t1"), Cond: gtCond("x", "nosuch")}
	if _, err := NewBuilder().AddRule(0, unbound); err == nil ||
		!strings.Contains(err.Error(), "not bound by the guarded event") {
		t.Fatalf("unbound-guard-var error = %v", err)
	}

	// Variables under NOT never bind; guards may not reference them.
	underNot := &event.Within{
		X: &event.Guarded{
			X: &event.And{
				L: gp("a", "x", "t1"),
				R: &event.Not{X: gp("b", "y", "t2")},
			},
			Cond: gtCond("x", "y"),
		},
		Max: time.Minute,
	}
	if _, err := NewBuilder().AddRule(0, underNot); err == nil ||
		!strings.Contains(err.Error(), "not bound by the guarded event") {
		t.Fatalf("under-not guard var error = %v", err)
	}

	// Aggregated SEQ+ variables are in scope.
	agg := &event.Within{
		X: &event.Guarded{
			X:    &event.TSeqPlus{X: gp("s", "v", "t"), Lo: time.Second, Hi: 10 * time.Second},
			Cond: &event.GBin{Op: event.GuardGt, L: &event.GAgg{Op: event.AggMax, Name: "v"}, R: &event.GLit{V: event.IntValue(8)}},
		},
		Max: time.Minute,
	}
	if _, err := NewBuilder().AddRule(0, agg); err != nil {
		t.Fatalf("aggregate guard rejected: %v", err)
	}
}
