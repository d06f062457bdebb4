package detect

import (
	"sort"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

func ts(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }

func prim(reader, objVar, timeVar string, preds ...event.Pred) *event.Prim {
	return &event.Prim{
		Reader: event.Term{Lit: reader},
		Object: event.Term{Var: objVar},
		At:     event.Term{Var: timeVar},
		Preds:  preds,
	}
}

func primVars(rVar, oVar, tVar string, preds ...event.Pred) *event.Prim {
	return &event.Prim{
		Reader: event.Term{Var: rVar},
		Object: event.Term{Var: oVar},
		At:     event.Term{Var: tVar},
		Preds:  preds,
	}
}

func obs(reader, object string, sec float64) event.Observation {
	return event.Observation{Reader: reader, Object: object, At: ts(sec)}
}

type detection struct {
	rule int
	inst *event.Instance
}

type harness struct {
	t      *testing.T
	eng    *Engine
	sights []detection
}

func newHarness(t *testing.T, rules map[int]event.Expr, mod func(*Config)) *harness {
	t.Helper()
	b := graph.NewBuilder()
	ids := make([]int, 0, len(rules))
	for id := range rules {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if _, err := b.AddRule(id, rules[id]); err != nil {
			t.Fatalf("AddRule(%d): %v", id, err)
		}
	}
	h := &harness{t: t}
	cfg := Config{
		Graph: b.Finalize(),
		OnDetect: func(rid int, inst *event.Instance) {
			h.sights = append(h.sights, detection{rid, inst})
		},
	}
	if mod != nil {
		mod(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.eng = eng
	return h
}

func (h *harness) feed(observations ...event.Observation) {
	h.t.Helper()
	for _, o := range observations {
		if err := h.eng.Ingest(o); err != nil {
			h.t.Fatalf("Ingest(%v): %v", o, err)
		}
	}
}

func (h *harness) run(observations ...event.Observation) []detection {
	h.t.Helper()
	h.feed(observations...)
	h.eng.Close()
	return h.sights
}

func TestPrimitiveRuleFires(t *testing.T) {
	// Rule 3 style: ON observation(r, o, t) — every observation fires.
	h := newHarness(t, map[int]event.Expr{1: primVars("r", "o", "t")}, nil)
	got := h.run(obs("r1", "o1", 1), obs("r2", "o2", 2))
	if len(got) != 2 {
		t.Fatalf("detections = %d, want 2", len(got))
	}
	in := got[0].inst
	if in.Binds.Val("r").Str() != "r1" || in.Binds.Val("o").Str() != "o1" || in.Binds.Val("t").Time() != ts(1) {
		t.Errorf("bindings wrong: %v", in.Binds)
	}
	if in.Begin != ts(1) || in.End != ts(1) {
		t.Errorf("primitive instance should be instantaneous: %v", in)
	}
}

func TestPrimitiveReaderLiteralFilter(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{1: prim("r1", "o", "t")}, nil)
	got := h.run(obs("r1", "a", 1), obs("r2", "b", 2), obs("r1", "c", 3))
	if len(got) != 2 {
		t.Fatalf("detections = %d, want 2 (only reader r1)", len(got))
	}
}

func TestPrimitiveTypePredicate(t *testing.T) {
	types := map[string]string{"L1": "laptop", "P1": "pallet"}
	h := newHarness(t, map[int]event.Expr{
		1: primVars("r", "o", "t", event.Pred{Fn: "type", Arg: "o", Op: event.CmpEq, Val: "laptop"}),
	}, func(c *Config) {
		c.TypeOf = func(o string) string { return types[o] }
	})
	got := h.run(obs("r1", "L1", 1), obs("r1", "P1", 2))
	if len(got) != 1 || got[0].inst.Binds.Val("o").Str() != "L1" {
		t.Fatalf("type predicate failed: %v", got)
	}
}

func TestPrimitiveGroupPredicate(t *testing.T) {
	groups := map[string][]string{"rA": {"g1"}, "rB": {"g1", "g2"}, "rC": {"g3"}}
	h := newHarness(t, map[int]event.Expr{
		1: primVars("r", "o", "t", event.Pred{Fn: "group", Arg: "r", Op: event.CmpEq, Val: "g1"}),
	}, func(c *Config) {
		c.Groups = func(r string) []string { return groups[r] }
	})
	got := h.run(obs("rA", "x", 1), obs("rB", "y", 2), obs("rC", "z", 3))
	if len(got) != 2 {
		t.Fatalf("group predicate: got %d detections, want 2", len(got))
	}
}

func TestDefaultGroupIsReaderItself(t *testing.T) {
	// Paper §2.1: with no group table, group(r) = r.
	h := newHarness(t, map[int]event.Expr{
		1: primVars("r", "o", "t", event.Pred{Fn: "group", Arg: "r", Op: event.CmpEq, Val: "r7"}),
	}, nil)
	got := h.run(obs("r7", "x", 1), obs("r8", "y", 2))
	if len(got) != 1 || got[0].inst.Binds.Val("r").Str() != "r7" {
		t.Fatalf("default group: %v", got)
	}
}

func TestOrDisjunction(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.Or{L: prim("r1", "o", "t"), R: prim("r2", "o", "t")},
	}, nil)
	got := h.run(obs("r1", "a", 1), obs("r3", "b", 2), obs("r2", "c", 3))
	if len(got) != 2 {
		t.Fatalf("OR: got %d, want 2", len(got))
	}
}

func TestAndConjunction(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.And{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")},
	}, nil)
	got := h.run(obs("r2", "b", 1), obs("r1", "a", 5))
	if len(got) != 1 {
		t.Fatalf("AND: got %d, want 1", len(got))
	}
	in := got[0].inst
	if in.Begin != ts(1) || in.End != ts(5) {
		t.Errorf("AND span = [%v, %v], want [1s, 5s]", in.Begin, in.End)
	}
	if in.Binds.Val("o1").Str() != "a" || in.Binds.Val("o2").Str() != "b" {
		t.Errorf("AND bindings: %v", in.Binds)
	}
}

func TestAndWithinConstraint(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{X: &event.And{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")}, Max: 3 * time.Second},
	}, nil)
	// Pair at distance 5s violates WITHIN(3s); later pair at 2s is fine.
	got := h.run(obs("r1", "a", 0), obs("r2", "b", 5), obs("r1", "c", 6))
	if len(got) != 1 {
		t.Fatalf("AND within: got %d, want 1", len(got))
	}
	if got[0].inst.Binds.Val("o1").Str() != "c" {
		t.Errorf("wrong pairing: %v", got[0].inst.Binds)
	}
}

func TestSeqOrdering(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.Seq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")},
	}, nil)
	// Terminator before initiator must not match; later one does.
	got := h.run(obs("r2", "x", 1), obs("r1", "a", 2), obs("r2", "y", 3))
	if len(got) != 1 {
		t.Fatalf("SEQ: got %d, want 1", len(got))
	}
	in := got[0].inst
	if in.Binds.Val("o1").Str() != "a" || in.Binds.Val("o2").Str() != "y" {
		t.Errorf("SEQ pairing: %v", in.Binds)
	}
	if in.Begin != ts(2) || in.End != ts(3) {
		t.Errorf("SEQ span: %v", in)
	}
}

func TestSeqSimultaneousDoesNotMatch(t *testing.T) {
	// SEQ requires t_end(e1) < t_begin(e2); simultaneous events don't pair.
	h := newHarness(t, map[int]event.Expr{
		1: &event.Seq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")},
	}, nil)
	got := h.run(obs("r1", "a", 1), obs("r2", "b", 1))
	if len(got) != 0 {
		t.Fatalf("simultaneous SEQ matched: %v", got)
	}
}

func TestTSeqDistanceBounds(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.TSeq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2"),
			Lo: 2 * time.Second, Hi: 4 * time.Second},
	}, nil)
	// dist = 1s (too close), 5s (too far), 3s (just right).
	got := h.run(
		obs("r1", "a", 0), obs("r2", "x", 1), // dist 1: no
		obs("r2", "y", 5),                      // dist 5 from a: no (and a now expired)
		obs("r1", "b", 10), obs("r2", "z", 13), // dist 3: yes
	)
	if len(got) != 1 {
		t.Fatalf("TSEQ: got %d, want 1: %v", len(got), got)
	}
	if got[0].inst.Binds.Val("o1").Str() != "b" || got[0].inst.Binds.Val("o2").Str() != "z" {
		t.Errorf("TSEQ pairing: %v", got[0].inst.Binds)
	}
}

func TestSeqJoinOnSharedVariables(t *testing.T) {
	// Rule 1 (duplicate detection): same reader, same object, within 5s.
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.Seq{L: primVars("r", "o", "t1"), R: primVars("r", "o", "t2")},
			Max: 5 * time.Second,
		},
	}, nil)
	got := h.run(
		obs("r1", "o1", 0),
		obs("r1", "o2", 1),  // different object: no pair with o1
		obs("r1", "o1", 3),  // duplicate of o1@0
		obs("r2", "o1", 4),  // different reader: no pair
		obs("r1", "o1", 10), // too late: no pair with o1@3 (7s)
		obs("r1", "o2", 11), // too late for o2@1
	)
	if len(got) != 1 {
		t.Fatalf("dup rule: got %d, want 1: %v", len(got), got)
	}
	in := got[0].inst
	if in.Binds.Val("t1").Time() != ts(0) || in.Binds.Val("t2").Time() != ts(3) {
		t.Errorf("dup pairing: %v", in.Binds)
	}
}

func TestChronicleOverlappingSequences(t *testing.T) {
	// Chronicle pairs oldest initiator with oldest terminator even when
	// complex events overlap (paper §4.2).
	h := newHarness(t, map[int]event.Expr{
		1: &event.Seq{L: prim("rA", "o1", "t1"), R: prim("rB", "o2", "t2")},
	}, nil)
	got := h.run(obs("rA", "a1", 1), obs("rA", "a2", 2), obs("rB", "b1", 3), obs("rB", "b2", 4))
	if len(got) != 2 {
		t.Fatalf("chronicle: got %d, want 2", len(got))
	}
	if got[0].inst.Binds.Val("o1").Str() != "a1" || got[0].inst.Binds.Val("o2").Str() != "b1" {
		t.Errorf("first pairing: %v", got[0].inst.Binds)
	}
	if got[1].inst.Binds.Val("o1").Str() != "a2" || got[1].inst.Binds.Val("o2").Str() != "b2" {
		t.Errorf("second pairing: %v", got[1].inst.Binds)
	}
}

// TestFig4 reproduces the paper's Fig. 4 history for
// E = TSEQ(TSEQ+(E1, 0sec, 1sec); E2, 5sec, 10sec): the correct instances
// are {e1@1,2,3 + e2@12} and {e1@5,6,7 + e2@15}.
func TestFig4CorrectDetection(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.TSeq{
			L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
			R:  prim("r2", "o2", "t2"),
			Lo: 5 * time.Second, Hi: 10 * time.Second,
		},
	}, nil)
	got := h.run(
		obs("r1", "i1", 1), obs("r1", "i2", 2), obs("r1", "i3", 3),
		obs("r1", "i5", 5), obs("r1", "i6", 6), obs("r1", "i7", 7),
		obs("r2", "c1", 12), obs("r2", "c2", 15),
	)
	if len(got) != 2 {
		t.Fatalf("Fig4: got %d detections, want 2: %v", len(got), got)
	}
	first, second := got[0].inst, got[1].inst
	wantList := func(in *event.Instance, items ...string) {
		t.Helper()
		l := in.Binds.Val("o1")
		if l.Kind() != event.KindList || l.Len() != len(items) {
			t.Fatalf("o1 = %v, want list %v", l, items)
		}
		for i, it := range items {
			if l.Elem(i).Str() != it {
				t.Errorf("o1[%d] = %v, want %s", i, l.Elem(i), it)
			}
		}
	}
	wantList(first, "i1", "i2", "i3")
	if first.Binds.Val("o2").Str() != "c1" {
		t.Errorf("first terminator: %v", first.Binds.Val("o2"))
	}
	if first.Begin != ts(1) || first.End != ts(12) {
		t.Errorf("first span: %v", first)
	}
	wantList(second, "i5", "i6", "i7")
	if second.Binds.Val("o2").Str() != "c2" {
		t.Errorf("second terminator: %v", second.Binds.Val("o2"))
	}
}

// TestFig8 reproduces the paper's Fig. 8 pseudo-event walkthrough for
// E = WITHIN(E1 ∧ ¬E2, 10sec) over history {e2@2, e1@10, e1@20}: a single
// detection with span [20s, 30s], completed by the pseudo event at t=30.
func TestFig8PseudoEventDetection(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
			Max: 10 * time.Second,
		},
	}, nil)
	h.feed(obs("r2", "u1", 2), obs("r1", "L1", 10), obs("r1", "L2", 20))
	if len(h.sights) != 0 {
		t.Fatalf("nothing should be detected before the window expires")
	}
	if err := h.eng.AdvanceTo(ts(30)); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	if len(h.sights) != 1 {
		t.Fatalf("Fig8: got %d detections, want 1", len(h.sights))
	}
	in := h.sights[0].inst
	if in.Begin != ts(20) || in.End != ts(30) {
		t.Errorf("Fig8 span = [%v, %v], want [20s, 30s]", in.Begin, in.End)
	}
	if in.Binds.Val("o1").Str() != "L2" {
		t.Errorf("Fig8 bindings: %v", in.Binds)
	}
}

func TestAndNotBlockedByLaterNegative(t *testing.T) {
	// The negative event arrives inside the future half of the window.
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
			Max: 10 * time.Second,
		},
	}, nil)
	got := h.run(obs("r1", "L1", 10), obs("r2", "u1", 15))
	if len(got) != 0 {
		t.Fatalf("negative at 15s inside [10,20] must block: %v", got)
	}
}

func TestAndNotJoinFilter(t *testing.T) {
	// Same-reader negation: only a superuser at the SAME reader clears the
	// laptop. A superuser elsewhere must not.
	types := map[string]string{"L1": "laptop", "U1": "superuser"}
	mk := func() map[int]event.Expr {
		return map[int]event.Expr{
			1: &event.Within{
				X: &event.And{
					L: primVars("r", "o1", "t1", event.Pred{Fn: "type", Arg: "o1", Op: event.CmpEq, Val: "laptop"}),
					R: &event.Not{X: primVars("r", "o2", "t2", event.Pred{Fn: "type", Arg: "o2", Op: event.CmpEq, Val: "superuser"})},
				},
				Max: 5 * time.Second,
			},
		}
	}
	cfg := func(c *Config) { c.TypeOf = func(o string) string { return types[o] } }

	// Superuser at same reader: no alarm.
	h1 := newHarness(t, mk(), cfg)
	if got := h1.run(obs("exit", "L1", 10), obs("exit", "U1", 12)); len(got) != 0 {
		t.Errorf("superuser at same reader should clear the alarm: %v", got)
	}
	// Superuser at a different reader: alarm fires.
	h2 := newHarness(t, mk(), cfg)
	if got := h2.run(obs("exit", "L1", 10), obs("lobby", "U1", 12)); len(got) != 1 {
		t.Errorf("superuser elsewhere must not clear the alarm: %v", got)
	}
}

func TestInfieldRule(t *testing.T) {
	// Rule 2: WITHIN(¬observation(r,o,t1); observation(r,o,t2), 30sec):
	// fires only when the object was NOT seen in the preceding 30s.
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.Seq{L: &event.Not{X: primVars("r", "o", "t1")}, R: primVars("r", "o", "t2")},
			Max: 30 * time.Second,
		},
	}, nil)
	got := h.run(
		obs("shelf", "item1", 0),  // first sighting: infield
		obs("shelf", "item1", 10), // re-read: suppressed
		obs("shelf", "item1", 20), // re-read: suppressed
		obs("shelf", "item2", 25), // different object: infield
		obs("shelf", "item1", 60), // 40s gap: infield again
	)
	if len(got) != 3 {
		t.Fatalf("infield: got %d, want 3: %v", len(got), got)
	}
	wantTimes := []event.Time{ts(0), ts(25), ts(60)}
	for i, d := range got {
		if d.inst.Binds.Val("t2").Time() != wantTimes[i] {
			t.Errorf("infield %d at %v, want %v", i, d.inst.Binds.Val("t2").Time(), wantTimes[i])
		}
	}
}

func TestOutfieldRule(t *testing.T) {
	// Outfield: WITHIN(observation(r,o,t1); ¬observation(r,o,t2), 30sec):
	// fires 30s after the LAST sighting of the object.
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.Seq{L: primVars("r", "o", "t1"), R: &event.Not{X: primVars("r", "o", "t2")}},
			Max: 30 * time.Second,
		},
	}, nil)
	got := h.run(
		obs("shelf", "item1", 0),
		obs("shelf", "item1", 20),
		obs("shelf", "item1", 40),
		// item1 never read again → outfield at 70.
	)
	if len(got) != 1 {
		t.Fatalf("outfield: got %d, want 1: %v", len(got), got)
	}
	in := got[0].inst
	if in.End != ts(70) {
		t.Errorf("outfield completes at %v, want 70s", in.End)
	}
	if in.Binds.Val("t1").Time() != ts(40) {
		t.Errorf("outfield anchored at %v, want last sighting 40s", in.Binds.Val("t1").Time())
	}
}

func TestTSeqPlusRootClosesViaPseudo(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.TSeqPlus{X: prim("r1", "o", "t"), Lo: 0, Hi: time.Second},
	}, nil)
	h.feed(obs("r1", "a", 1), obs("r1", "b", 1.5), obs("r1", "c", 2.2))
	if len(h.sights) != 0 {
		t.Fatalf("sequence must not close while extendable")
	}
	h.feed(obs("r1", "d", 10)) // gap > 1s closes the first run
	if len(h.sights) != 1 {
		t.Fatalf("first run should have closed: %d", len(h.sights))
	}
	in := h.sights[0].inst
	if l := in.Binds.Val("o"); l.Len() != 3 || l.Elem(0).Str() != "a" || l.Elem(2).Str() != "c" {
		t.Errorf("first run list: %v", l)
	}
	if in.Begin != ts(1) || in.End != ts(2.2) {
		t.Errorf("first run span: %v", in)
	}
	h.eng.Close() // drains the close pseudo for {d}
	if len(h.sights) != 2 {
		t.Fatalf("second run should close on Close(): %d", len(h.sights))
	}
}

func TestTSeqPlusTooFastBreaksAdjacency(t *testing.T) {
	// DESIGN.md §3: an arrival faster than Lo breaks the run.
	h := newHarness(t, map[int]event.Expr{
		1: &event.TSeqPlus{X: prim("r1", "o", "t"), Lo: 500 * time.Millisecond, Hi: time.Second},
	}, nil)
	got := h.run(obs("r1", "a", 1), obs("r1", "b", 1.1)) // 0.1s < Lo
	if len(got) != 2 {
		t.Fatalf("too-fast arrival should yield two runs, got %d", len(got))
	}
}

func TestTSeqPlusWithinSplitsLongRun(t *testing.T) {
	// WITHIN(TSEQ+(E1, 0.1s, 1s), 2s): a long adjacent run is split when
	// it would exceed the propagated interval bound.
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.TSeqPlus{X: prim("r1", "o", "t"), Lo: 0, Hi: time.Second},
			Max: 2 * time.Second,
		},
	}, nil)
	got := h.run(
		obs("r1", "a", 0), obs("r1", "b", 1), obs("r1", "c", 2),
		obs("r1", "d", 3), obs("r1", "e", 4),
	)
	if len(got) != 2 {
		t.Fatalf("run should split under WITHIN: got %d: %v", len(got), got)
	}
	for _, d := range got {
		if d.inst.Interval() > 2*time.Second {
			t.Errorf("detected run violates WITHIN: %v", d.inst)
		}
	}
}

func TestSeqPlusPullInitiator(t *testing.T) {
	// WITHIN(SEQ+(E1); E2, 10s): unconstrained aperiodic initiator,
	// evaluated lazily over the lookback window on terminator arrival.
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.Seq{L: &event.SeqPlus{X: prim("r1", "o1", "t1")}, R: prim("r2", "o2", "t2")},
			Max: 10 * time.Second,
		},
	}, nil)
	got := h.run(
		obs("r1", "a", 1), obs("r1", "b", 3), obs("r1", "c", 8),
		obs("r2", "case", 9),
	)
	if len(got) != 1 {
		t.Fatalf("SEQ+ pull: got %d, want 1: %v", len(got), got)
	}
	l := got[0].inst.Binds.Val("o1")
	if l.Len() != 3 {
		t.Errorf("SEQ+ should aggregate all 3 items in window: %v", l)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{1: primVars("r", "o", "t")}, nil)
	h.feed(obs("r1", "a", 5))
	if err := h.eng.Ingest(obs("r1", "b", 4)); err == nil {
		t.Fatalf("out-of-order observation accepted")
	}
	if err := h.eng.AdvanceTo(ts(1)); err == nil {
		t.Fatalf("backwards AdvanceTo accepted")
	}
	// Equal timestamps are fine.
	if err := h.eng.Ingest(obs("r1", "c", 5)); err != nil {
		t.Fatalf("equal timestamp rejected: %v", err)
	}
}

func TestMetrics(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
			Max: 5 * time.Second,
		},
	}, nil)
	h.run(obs("r1", "a", 1), obs("r3", "x", 2))
	m := h.eng.Metrics()
	if m.Observations != 2 {
		t.Errorf("Observations = %d", m.Observations)
	}
	if m.PrimMatches != 1 {
		t.Errorf("PrimMatches = %d", m.PrimMatches)
	}
	if m.PseudoScheduled != 1 || m.PseudoFired != 1 {
		t.Errorf("pseudo counters: %+v", m)
	}
	if m.Detections != 1 {
		t.Errorf("Detections = %d", m.Detections)
	}
}

func TestSharedSubgraphSingleDetectionPerRule(t *testing.T) {
	// Two rules over the same event must each fire exactly once per match.
	e1 := &event.Seq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")}
	e2 := &event.Seq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")}
	h := newHarness(t, map[int]event.Expr{1: e1, 2: e2}, nil)
	got := h.run(obs("r1", "a", 1), obs("r2", "b", 2))
	if len(got) != 2 {
		t.Fatalf("got %d detections, want 2 (one per rule)", len(got))
	}
	rules := map[int]int{}
	for _, d := range got {
		rules[d.rule]++
	}
	if rules[1] != 1 || rules[2] != 1 {
		t.Errorf("per-rule detections: %v", rules)
	}
}

func TestSelfSequence(t *testing.T) {
	// SEQ(E; E) with a fully identical pattern merges into one graph node
	// on both sides (anonymous time term, join on the object): each
	// sighting of the same object terminates the previous one.
	p := func() event.Expr {
		return &event.Prim{Reader: event.Term{Lit: "r1"}, Object: event.Term{Var: "o"}}
	}
	h := newHarness(t, map[int]event.Expr{1: &event.Seq{L: p(), R: p()}}, nil)
	got := h.run(obs("r1", "x", 1), obs("r1", "x", 2), obs("r1", "x", 3), obs("r1", "x", 4))
	// Chronicle without reuse: (1,2) then (3,4).
	if len(got) != 2 {
		t.Fatalf("self-SEQ: got %d, want 2: %v", len(got), got)
	}
	if got[0].inst.Begin != ts(1) || got[0].inst.End != ts(2) ||
		got[1].inst.Begin != ts(3) || got[1].inst.End != ts(4) {
		t.Errorf("self-SEQ spans: %v, %v", got[0].inst, got[1].inst)
	}
}

func TestChroniclePairsOldestFirst(t *testing.T) {
	// Initiators a@1, b@2; terminators x@3, y@4. Each terminator consumes
	// the oldest pending initiator (paper §4.2).
	h := newHarness(t, map[int]event.Expr{
		1: &event.Seq{L: prim("rA", "o1", "t1"), R: prim("rB", "o2", "t2")},
	}, nil)
	var got []string
	for _, d := range h.run(obs("rA", "a", 1), obs("rA", "b", 2), obs("rB", "x", 3), obs("rB", "y", 4)) {
		got = append(got, d.inst.Binds.Val("o1").String()+"+"+d.inst.Binds.Val("o2").String())
	}
	if len(got) != 2 || got[0] != "a+x" || got[1] != "b+y" {
		t.Errorf("chronicle: %v", got)
	}
}

func TestWithinDropsLongInstances(t *testing.T) {
	// WITHIN over a SEQ drops pairings whose combined span is too long
	// even when the SEQ itself is unbounded.
	h := newHarness(t, map[int]event.Expr{
		1: &event.Within{
			X:   &event.Seq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")},
			Max: 2 * time.Second,
		},
	}, nil)
	got := h.run(obs("r1", "a", 0), obs("r2", "b", 5))
	if len(got) != 0 {
		t.Fatalf("pairing spanning 5s must be dropped by WITHIN(2s): %v", got)
	}
}

func TestRule4ContainmentPattern(t *testing.T) {
	// Rule 4: TSEQ(TSEQ+(E1, 0.1sec, 1sec); E2, 10sec, 20sec) — items on
	// the conveyor, then the case 10–20s later.
	h := newHarness(t, map[int]event.Expr{
		4: &event.TSeq{
			L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 100 * time.Millisecond, Hi: time.Second},
			R:  prim("r2", "o2", "t2"),
			Lo: 10 * time.Second, Hi: 20 * time.Second,
		},
	}, nil)
	got := h.run(
		obs("r1", "item1", 1.0), obs("r1", "item2", 1.3), obs("r1", "item3", 1.6),
		obs("r2", "case1", 14),
	)
	if len(got) != 1 {
		t.Fatalf("containment: got %d, want 1: %v", len(got), got)
	}
	in := got[0].inst
	items := in.Binds.Val("o1")
	if items.Len() != 3 {
		t.Fatalf("items: %v", items)
	}
	if in.Binds.Val("o2").Str() != "case1" {
		t.Errorf("case: %v", in.Binds.Val("o2"))
	}
	// BULK INSERT semantics downstream rely on ordered lists.
	for i, want := range []string{"item1", "item2", "item3"} {
		if items.Elem(i).Str() != want {
			t.Errorf("items[%d] = %v, want %s", i, items.Elem(i), want)
		}
	}
}

func TestNoFalseContainmentWhenGapTooShort(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		4: &event.TSeq{
			L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
			R:  prim("r2", "o2", "t2"),
			Lo: 10 * time.Second, Hi: 20 * time.Second,
		},
	}, nil)
	// Case read only 5s after the last item: outside [10, 20].
	got := h.run(obs("r1", "item1", 1), obs("r2", "case1", 6))
	if len(got) != 0 {
		t.Fatalf("distance 5s must not match [10s, 20s]: %v", got)
	}
}

func TestEngineRequiresGraph(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatalf("New without graph should fail")
	}
}

func TestAdvanceToIsIdempotentAndMonotonic(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{1: primVars("r", "o", "t")}, nil)
	h.feed(obs("r1", "a", 1))
	if err := h.eng.AdvanceTo(ts(5)); err != nil {
		t.Fatal(err)
	}
	if err := h.eng.AdvanceTo(ts(5)); err != nil {
		t.Fatalf("same-time AdvanceTo should be fine: %v", err)
	}
	if h.eng.Now() != ts(5) {
		t.Errorf("Now = %v", h.eng.Now())
	}
}
