package graph

import (
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
)

// prim builds observation('r', o, t)-style patterns for tests.
func prim(reader, objVar, timeVar string) *event.Prim {
	return &event.Prim{
		Reader: event.Term{Lit: reader},
		Object: event.Term{Var: objVar},
		At:     event.Term{Var: timeVar},
	}
}

func primVars(rVar, oVar, tVar string) *event.Prim {
	return &event.Prim{
		Reader: event.Term{Var: rVar},
		Object: event.Term{Var: oVar},
		At:     event.Term{Var: tVar},
	}
}

func mustAdd(t *testing.T, b *Builder, id int, e event.Expr) *Node {
	t.Helper()
	n, err := b.AddRule(id, e)
	if err != nil {
		t.Fatalf("AddRule(%d): %v", id, err)
	}
	return n
}

func TestPrimitiveIsPush(t *testing.T) {
	b := NewBuilder()
	root := mustAdd(t, b, 1, prim("r1", "o", "t"))
	if root.Kind != KindPrim || root.Mode != ModePush {
		t.Errorf("got %v", root)
	}
	g := b.Finalize()
	if len(g.Prims) != 1 || g.Roots[1] != root {
		t.Errorf("graph bookkeeping wrong: %d prims, roots %v", len(g.Prims), g.Roots)
	}
}

func TestWithinPropagation(t *testing.T) {
	// WITHIN(TSEQ+(E1 OR E2, 0.1s, 1s) ; E3, 10min) — paper Fig. 7.
	e := &event.Within{
		X: &event.Seq{
			L: &event.TSeqPlus{
				X:  &event.Or{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")},
				Lo: 100 * time.Millisecond, Hi: time.Second,
			},
			R: prim("r3", "o3", "t3"),
		},
		Max: 10 * time.Minute,
	}
	b := NewBuilder()
	root := mustAdd(t, b, 1, e)
	if !root.HasWithin || root.Within != 10*time.Minute {
		t.Fatalf("root within missing: %v", root)
	}
	// Every descendant must carry the propagated 10min constraint.
	var check func(n *Node)
	check = func(n *Node) {
		if !n.HasWithin || n.Within != 10*time.Minute {
			t.Errorf("node %v missing propagated within", n)
		}
		for _, c := range n.Children {
			check(c)
		}
	}
	check(root)
}

func TestWithinPropagationTakesMin(t *testing.T) {
	// WITHIN(WITHIN(E1 AND E2, 5s), 10s): inner (tighter) bound wins.
	e := &event.Within{
		X:   &event.Within{X: &event.And{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")}, Max: 5 * time.Second},
		Max: 10 * time.Second,
	}
	b := NewBuilder()
	root := mustAdd(t, b, 1, e)
	if root.Within != 5*time.Second {
		t.Errorf("inner within should win, got %v", root.Within)
	}
	// Reversed nesting: outer tighter.
	e2 := &event.Within{
		X:   &event.Within{X: &event.And{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")}, Max: 10 * time.Second},
		Max: 5 * time.Second,
	}
	b2 := NewBuilder()
	root2 := mustAdd(t, b2, 1, e2)
	if root2.Within != 5*time.Second {
		t.Errorf("outer tighter within should win, got %v", root2.Within)
	}
}

func TestModes(t *testing.T) {
	p1 := func() event.Expr { return prim("r1", "o1", "t1") }
	p2 := func() event.Expr { return prim("r2", "o2", "t2") }
	cases := []struct {
		name string
		expr event.Expr
		mode Mode
	}{
		{"or-push", &event.Or{L: p1(), R: p2()}, ModePush},
		{"and-push", &event.And{L: p1(), R: p2()}, ModePush},
		{"seq-push", &event.Seq{L: p1(), R: p2()}, ModePush},
		{"tseq-push", &event.TSeq{L: p1(), R: p2(), Lo: 0, Hi: time.Second}, ModePush},
		{"tseqplus-mixed", &event.TSeqPlus{X: p1(), Lo: 0, Hi: time.Second}, ModeMixed},
		{"within-and-not-mixed", &event.Within{X: &event.And{L: p1(), R: &event.Not{X: p2()}}, Max: 5 * time.Second}, ModeMixed},
		{"within-notseq-push", &event.Within{X: &event.Seq{L: &event.Not{X: p1()}, R: p2()}, Max: 30 * time.Second}, ModePush},
		{"within-seqnot-mixed", &event.Within{X: &event.Seq{L: p1(), R: &event.Not{X: p2()}}, Max: 30 * time.Second}, ModeMixed},
		{"tseq-over-tseqplus", &event.TSeq{L: &event.TSeqPlus{X: p1(), Lo: 0, Hi: time.Second}, R: p2(), Lo: 5 * time.Second, Hi: 10 * time.Second}, ModePush},
		{"within-seqplus-initiator", &event.Within{X: &event.Seq{L: &event.SeqPlus{X: p1()}, R: p2()}, Max: time.Minute}, ModePush},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder()
			root := mustAdd(t, b, 1, c.expr)
			if root.Mode != c.mode {
				t.Errorf("mode = %v, want %v (node %v)", root.Mode, c.mode, root)
			}
		})
	}
}

func TestInvalidRules(t *testing.T) {
	p1 := func() event.Expr { return prim("r1", "o1", "t1") }
	p2 := func() event.Expr { return prim("r2", "o2", "t2") }
	cases := []struct {
		name string
		expr event.Expr
		frag string // expected fragment of the error
	}{
		{"bare-not", &event.Not{X: p1()}, "pull mode"},
		{"double-negation", &event.Not{X: &event.Not{X: p1()}}, "negation of a non-spontaneous"},
		{"or-not", &event.Or{L: p1(), R: &event.Not{X: p2()}}, "OR over a non-spontaneous"},
		{"and-not-unbounded", &event.And{L: p1(), R: &event.Not{X: p2()}}, "requires a WITHIN"},
		{"and-two-nots", &event.Within{X: &event.And{L: &event.Not{X: p1()}, R: &event.Not{X: p2()}}, Max: time.Second}, "two non-spontaneous"},
		{"seq-not-initiator-unbounded", &event.Seq{L: &event.Not{X: p1()}, R: p2()}, "requires TSEQ bounds or a WITHIN"},
		{"seq-not-terminator-unbounded", &event.Seq{L: p1(), R: &event.Not{X: p2()}}, "requires TSEQ bounds or a WITHIN"},
		{"seq-two-nots", &event.Within{X: &event.Seq{L: &event.Not{X: p1()}, R: &event.Not{X: p2()}}, Max: time.Second}, "two non-spontaneous"},
		{"bare-seqplus", &event.SeqPlus{X: p1()}, "pull mode"},
		{"seqplus-of-not", &event.SeqPlus{X: &event.Not{X: p1()}}, "SEQ+ over a non-spontaneous"},
		{"bad-tseq-bounds", &event.TSeq{L: p1(), R: p2(), Lo: 2 * time.Second, Hi: time.Second}, "not a valid interval"},
		{"bad-tseqplus-bounds", &event.TSeqPlus{X: p1(), Lo: -time.Second, Hi: time.Second}, "not a valid interval"},
		{"bad-within", &event.Within{X: p1(), Max: 0}, "must be positive"},
		{"nil-expr", nil, "nil event expression"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder()
			_, err := b.AddRule(1, c.expr)
			if err == nil {
				t.Fatalf("expected error for %s", c.name)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not contain %q", err, c.frag)
			}
		})
	}
}

func TestDuplicateRuleID(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, 7, prim("r1", "o", "t"))
	if _, err := b.AddRule(7, prim("r2", "o", "t")); err == nil {
		t.Fatalf("duplicate rule ID accepted")
	}
}

func TestCommonSubgraphMerging(t *testing.T) {
	// Two rules sharing the same TSEQ+ sub-event must share its node.
	shared := func() event.Expr {
		return &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 100 * time.Millisecond, Hi: time.Second}
	}
	r1 := &event.TSeq{L: shared(), R: prim("r2", "o2", "t2"), Lo: 10 * time.Second, Hi: 20 * time.Second}
	r2 := &event.TSeq{L: shared(), R: prim("r3", "o3", "t3"), Lo: 10 * time.Second, Hi: 20 * time.Second}

	b := NewBuilder()
	root1 := mustAdd(t, b, 1, r1)
	root2 := mustAdd(t, b, 2, r2)
	g := b.Finalize()
	if root1 == root2 {
		t.Fatalf("distinct rules merged entirely")
	}
	if root1.Left() != root2.Left() {
		t.Errorf("shared TSEQ+ sub-event was not merged")
	}
	// Expected nodes: prim r1, tseq+, prim r2, root1, prim r3, root2 = 6.
	if len(g.Nodes) != 6 {
		t.Errorf("node count = %d, want 6", len(g.Nodes))
	}
	multi := 0 // nodes with more than one parent
	for _, n := range g.Nodes {
		if len(n.Parents) > 1 {
			multi++
		}
	}
	if multi < 1 {
		t.Errorf("no node is shared by two parents")
	}

	// Without merging: 8 nodes, no sharing.
	b2 := NewBuilder(WithoutMerging())
	mustAdd(t, b2, 1, r1)
	mustAdd(t, b2, 2, r2)
	g2 := b2.Finalize()
	if len(g2.Nodes) != 8 {
		t.Errorf("unmerged node count = %d, want 8", len(g2.Nodes))
	}
}

func TestMergingRespectsConstraints(t *testing.T) {
	// Same structure, different WITHIN: must NOT merge (the propagated
	// constraints differ, so the nodes behave differently).
	mk := func(within time.Duration) event.Expr {
		return &event.Within{X: &event.And{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")}, Max: within}
	}
	b := NewBuilder()
	root1 := mustAdd(t, b, 1, mk(5*time.Second))
	root2 := mustAdd(t, b, 2, mk(10*time.Second))
	if root1 == root2 {
		t.Fatalf("nodes with different within constraints merged")
	}
	// Their prim children also differ (propagated constraint in the key).
	if root1.Left() == root2.Left() {
		t.Errorf("prim leaves with different propagated within merged")
	}
	// Identical rules must merge fully.
	root3 := mustAdd(t, b, 3, mk(5*time.Second))
	if root3 != root1 {
		t.Errorf("identical rule events should share the root node")
	}
	if got := len(root1.Rules); got != 2 {
		t.Errorf("shared root should list 2 rules, got %d", got)
	}
}

func TestJoinVars(t *testing.T) {
	// observation(r, o, t1) ; observation(r, o, t2): join on r and o.
	e := &event.Within{
		X:   &event.Seq{L: primVars("r", "o", "t1"), R: primVars("r", "o", "t2")},
		Max: 5 * time.Second,
	}
	b := NewBuilder()
	root := mustAdd(t, b, 1, e)
	want := []string{"o", "r"}
	if len(root.JoinVars) != 2 || root.JoinVars[0] != want[0] || root.JoinVars[1] != want[1] {
		t.Errorf("JoinVars = %v, want %v", root.JoinVars, want)
	}
}

func TestJoinVarsExcludeSequenceLists(t *testing.T) {
	// Variables bound inside TSEQ+ become lists and must not join.
	e := &event.TSeq{
		L:  &event.TSeqPlus{X: primVars("r", "o", "t1"), Lo: 0, Hi: time.Second},
		R:  primVars("r", "o2", "t2"),
		Lo: 5 * time.Second, Hi: 10 * time.Second,
	}
	b := NewBuilder()
	root := mustAdd(t, b, 1, e)
	if len(root.JoinVars) != 0 {
		t.Errorf("JoinVars = %v, want none (r is list-valued on the left)", root.JoinVars)
	}
}

func TestJoinVarsThroughNot(t *testing.T) {
	// WITHIN(obs(r,o,t1) AND NOT obs(r,o2,t2), 5s): r filters the negation.
	e := &event.Within{
		X:   &event.And{L: primVars("r", "o", "t1"), R: &event.Not{X: primVars("r", "o2", "t2")}},
		Max: 5 * time.Second,
	}
	b := NewBuilder()
	root := mustAdd(t, b, 1, e)
	if len(root.JoinVars) != 1 || root.JoinVars[0] != "r" {
		t.Errorf("JoinVars = %v, want [r]", root.JoinVars)
	}
	if root.NotChild != 1 {
		t.Errorf("NotChild = %d, want 1", root.NotChild)
	}
}

func TestPseudoAssignment(t *testing.T) {
	p1 := func() event.Expr { return prim("r1", "o1", "t1") }
	p2 := func() event.Expr { return prim("r2", "o2", "t2") }

	t.Run("and-not-within", func(t *testing.T) {
		b := NewBuilder()
		root := mustAdd(t, b, 1, &event.Within{X: &event.And{L: p1(), R: &event.Not{X: p2()}}, Max: 5 * time.Second})
		b.Finalize()
		if !root.Pseudo || root.Strategy != PseudoAndNotExpire {
			t.Errorf("want AndNotExpire pseudo, got %v", root)
		}
	})
	t.Run("seq-not-terminator", func(t *testing.T) {
		b := NewBuilder()
		root := mustAdd(t, b, 1, &event.Within{X: &event.Seq{L: p1(), R: &event.Not{X: p2()}}, Max: 30 * time.Second})
		b.Finalize()
		if !root.Pseudo || root.Strategy != PseudoSeqNotTerm {
			t.Errorf("want SeqNotTerm pseudo, got %v", root)
		}
	})
	t.Run("seq-not-initiator-no-pseudo", func(t *testing.T) {
		// Infield (Rule 2) is retrospective: push mode, no pseudo events
		// (paper §4.5).
		b := NewBuilder()
		root := mustAdd(t, b, 1, &event.Within{X: &event.Seq{L: &event.Not{X: p1()}, R: p2()}, Max: 30 * time.Second})
		b.Finalize()
		if root.Pseudo {
			t.Errorf("negated initiator should not need pseudo events: %v", root)
		}
	})
	t.Run("tseqplus-root", func(t *testing.T) {
		b := NewBuilder()
		root := mustAdd(t, b, 1, &event.TSeqPlus{X: p1(), Lo: 0, Hi: time.Second})
		b.Finalize()
		if !root.Pseudo || root.Strategy != PseudoSeqPlusClose {
			t.Errorf("root TSEQ+ needs close pseudo events: %v", root)
		}
	})
	t.Run("tseqplus-pulled-initiator", func(t *testing.T) {
		// TSEQ(TSEQ+(E1);E2): the TSEQ+ is only pulled by its parent on
		// terminator arrival; it can close lazily without pseudo events.
		b := NewBuilder()
		root := mustAdd(t, b, 1, &event.TSeq{
			L: &event.TSeqPlus{X: p1(), Lo: 0, Hi: time.Second},
			R: p2(), Lo: 5 * time.Second, Hi: 10 * time.Second,
		})
		b.Finalize()
		l := root.Left()
		if l.Pseudo {
			t.Errorf("pulled-only TSEQ+ should not schedule pseudo events: %v", l)
		}
		if !l.NeedsHistory {
			t.Errorf("pulled TSEQ+ must retain history")
		}
	})
}

func TestHistoryAssignment(t *testing.T) {
	b := NewBuilder()
	root := mustAdd(t, b, 1, &event.Within{
		X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
		Max: 5 * time.Second,
	})
	b.Finalize()
	notNode := root.Right()
	if notNode.Kind != KindNot {
		t.Fatalf("right child should be NOT, got %v", notNode)
	}
	negated := notNode.Child()
	if !negated.NeedsHistory {
		t.Errorf("negated child must keep history")
	}
	if negated.Retention < 10*time.Second {
		t.Errorf("retention %v too small for the Fig. 8 window (needs ≥ 2×5s)", negated.Retention)
	}
}

func TestBoundHelper(t *testing.T) {
	n := &Node{HasDist: true, Lo: time.Second, Hi: 3 * time.Second, HasWithin: true, Within: 10 * time.Second}
	if d, ok := n.Bound(); !ok || d != 3*time.Second {
		t.Errorf("dist bound should win: %v %v", d, ok)
	}
	n2 := &Node{HasWithin: true, Within: 10 * time.Second}
	if d, ok := n2.Bound(); !ok || d != 10*time.Second {
		t.Errorf("within bound: %v %v", d, ok)
	}
	n3 := &Node{}
	if _, ok := n3.Bound(); ok {
		t.Errorf("unbounded node reported a bound")
	}
}

func TestWriteDot(t *testing.T) {
	b := NewBuilder()
	mustAdd(t, b, 1, &event.Within{
		X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
		Max: 5 * time.Second,
	})
	mustAdd(t, b, 2, &event.TSeq{
		L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
		R:  prim("r3", "o3", "t3"),
		Lo: 5 * time.Second, Hi: 10 * time.Second,
	})
	g := b.Finalize()
	var sb strings.Builder
	if err := WriteDot(&sb, g); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, frag := range []string{
		"digraph rceda", "peripheries=2", "style=dashed", "->",
		"initiator", "terminator", "pseudo:and-not-expire", "within[5sec]",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("dot output missing %q:\n%s", frag, dot)
		}
	}
	// One line per node and edge at least.
	if strings.Count(dot, "\n") < len(g.Nodes)+3 {
		t.Errorf("dot output suspiciously short:\n%s", dot)
	}
}

func TestNodeAndKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{KindPrim: "PRIM", KindOr: "OR", KindAnd: "AND", KindNot: "NOT", KindSeq: "SEQ", KindSeqPlus: "SEQ+"} {
		if k.String() != want {
			t.Errorf("Kind %d string %q, want %q", k, k.String(), want)
		}
	}
	for m, want := range map[Mode]string{ModePush: "push", ModePull: "pull", ModeMixed: "mixed"} {
		if m.String() != want {
			t.Errorf("Mode string %q, want %q", m.String(), want)
		}
	}
	b := NewBuilder()
	root := mustAdd(t, b, 1, &event.TSeqPlus{X: prim("r1", "o", "t"), Lo: 0, Hi: time.Second})
	b.Finalize()
	s := root.String()
	for _, frag := range []string{"SEQ+", "dist[", "mixed", "pseudo:seqplus-close"} {
		if !strings.Contains(s, frag) {
			t.Errorf("node string %q missing %q", s, frag)
		}
	}
}
