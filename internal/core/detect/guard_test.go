package detect

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
)

// Guard tests state each scenario's expected detections by hand; the
// compiled guard programs themselves are checked against a tree fold in
// guard_ref_test.go. The BothModes names date from when a second,
// interpreted engine ran beside the compiled one.

func gvar(n string) event.GExpr { return &event.GVar{Name: n} }
func gint(i int64) event.GExpr  { return &event.GLit{V: event.IntValue(i)} }
func gbin(op event.GuardOp, l, r event.GExpr) event.GExpr {
	return &event.GBin{Op: op, L: l, R: r}
}

// runGuard feeds the history through a fresh engine and returns its
// detections after Close.
func runGuard(t *testing.T, rules map[int]event.Expr, history []event.Observation) []detection {
	t.Helper()
	return newHarness(t, rules, nil).run(history...)
}

func TestGuardSeqInequalityBothModes(t *testing.T) {
	// SEQ(read(v1) ; read(v2)) WHERE v2 > v1 + 5, objects carry numeric
	// payload strings.
	rules := map[int]event.Expr{
		1: &event.Within{
			X: &event.Guarded{
				X:    &event.Seq{L: prim("s", "v1", "t1"), R: prim("s", "v2", "t2")},
				Cond: gbin(event.GuardGt, gvar("v2"), gbin(event.GuardAdd, gvar("v1"), gint(5))),
			},
			Max: time.Minute,
		},
	}
	history := []event.Observation{
		obs("s", "10", 1),
		obs("s", "12", 2), // 12 > 10+5 fails; 10 stays pending
		obs("s", "17", 3), // 17 > 10+5 fails (not strict); pending 10, 12
		obs("s", "16", 4), // 16 > 10+5 passes → pairs the oldest (10)
		obs("s", "30", 5), // 30 > 12+5 passes → pairs 12
	}
	got := runGuard(t, rules, history)
	if len(got) != 2 {
		t.Fatalf("detections = %d, want 2", len(got))
	}
	if v1 := got[0].inst.Binds.Val("v1").Str(); v1 != "10" {
		t.Errorf("first pair initiator = %q, want 10 (failed guards must not consume)", v1)
	}
	if v1 := got[1].inst.Binds.Val("v1").Str(); v1 != "12" {
		t.Errorf("second pair initiator = %q, want 12", v1)
	}
}

func TestGuardAggregateSeqPlusBothModes(t *testing.T) {
	// WITHIN(TSEQ+(read(v)), 1min) WHERE MAX(v) > 8 AND COUNT(v) >= 3.
	rules := map[int]event.Expr{
		1: &event.Within{
			X: &event.Guarded{
				X: &event.TSeqPlus{X: prim("s", "v", "t"), Lo: 0, Hi: 2 * time.Second},
				Cond: gbin(event.GuardAnd,
					gbin(event.GuardGt, &event.GAgg{Op: event.AggMax, Name: "v"}, gint(8)),
					gbin(event.GuardGe, &event.GAgg{Op: event.AggCount, Name: "v"}, gint(3))),
			},
			Max: time.Minute,
		},
	}
	history := []event.Observation{
		// Run 1: 3 elements, max 9 → fires.
		obs("s", "7", 1), obs("s", "9", 2), obs("s", "8", 3),
		// Gap > Hi closes run 1. Run 2: 2 elements, max 12 → count fails.
		obs("s", "12", 10), obs("s", "11", 11),
		// Run 3: 3 elements, max 6 → max fails.
		obs("s", "5", 20), obs("s", "6", 21), obs("s", "4", 22),
	}
	got := runGuard(t, rules, history)
	if len(got) != 1 {
		t.Fatalf("detections = %d, want 1", len(got))
	}
	if b, e := got[0].inst.Begin, got[0].inst.End; b != ts(1) || e != ts(3) {
		t.Errorf("detected span [%v,%v], want [1s,3s]", b, e)
	}
}

func TestScopedNegationBothModes(t *testing.T) {
	rules := map[int]event.Expr{
		// Lost bag: checked in, not loaded within 5s (same bag b).
		1: &event.Seq{
			L: prim("ckr", "b", "t1"),
			R: &event.Not{X: prim("ldr", "b", "t2"), Win: 5 * time.Second},
		},
		// Stray bag: loaded with no check-in in the 5s before.
		2: &event.Seq{
			L: &event.Not{X: prim("ckr2", "c", "u1"), Win: 5 * time.Second},
			R: prim("ldr2", "c", "u2"),
		},
	}
	history := []event.Observation{
		obs("ckr", "bag1", 1),
		obs("ckr", "bag2", 2),                            // never loaded → fires at 7
		obs("ldr", "bag1", 3),                            // bag1 loaded in time
		obs("ckr2", "bag3", 10), obs("ldr2", "bag3", 12), // checked in → silent
		obs("ldr2", "bag4", 20), // no check-in in [15,20) → fires
	}
	got := runGuard(t, rules, history)
	var lost, stray int
	for _, d := range got {
		switch d.rule {
		case 1:
			lost++
			if b := d.inst.Binds.Val("b").Str(); b != "bag2" {
				t.Errorf("lost bag = %q, want bag2", b)
			}
		case 2:
			stray++
			if c := d.inst.Binds.Val("c").Str(); c != "bag4" {
				t.Errorf("stray bag = %q, want bag4", c)
			}
		}
	}
	if lost != 1 || stray != 1 {
		t.Fatalf("lost = %d, stray = %d, want 1 each (%v)", lost, stray, got)
	}
}

func TestScopedNegationAndBothModes(t *testing.T) {
	// a AND no b within 3s of it — no enclosing WITHIN needed.
	rules := map[int]event.Expr{
		1: &event.And{
			L: prim("a", "x", "t1"),
			R: &event.Not{X: prim("b", "y", "t2"), Win: 3 * time.Second},
		},
	}
	history := []event.Observation{
		obs("a", "o1", 1),
		obs("b", "k", 3),   // within 3s of o1 → suppressed
		obs("a", "o2", 10), // clean window → fires at 13
	}
	got := runGuard(t, rules, history)
	if len(got) != 1 || got[0].inst.Binds.Val("x").Str() != "o2" {
		t.Fatalf("detections = %v, want one for o2", got)
	}
}

func TestGuardPullSeqInitiatorBothModes(t *testing.T) {
	// TSEQ with a pulled TSEQ+ initiator and a parent guard joining the
	// run's aggregate against the terminator's payload.
	rules := map[int]event.Expr{
		1: &event.Within{
			X: &event.Guarded{
				X: &event.TSeq{
					L:  &event.TSeqPlus{X: prim("s", "v", "t"), Lo: 0, Hi: time.Second},
					R:  prim("q", "w", "u"),
					Lo: 2 * time.Second, Hi: 10 * time.Second,
				},
				Cond: gbin(event.GuardGt, gvar("w"), &event.GAgg{Op: event.AggSum, Name: "v"}),
			},
			Max: time.Minute,
		},
	}
	history := []event.Observation{
		obs("s", "3", 1), obs("s", "4", 1.5), // run sums to 7
		obs("q", "5", 5), // 5 > 7 fails; run stays unconsumed
		obs("q", "9", 6), // 9 > 7 passes → consumes the run
	}
	got := runGuard(t, rules, history)
	if len(got) != 1 {
		t.Fatalf("detections = %d, want 1", len(got))
	}
	if w := got[0].inst.Binds.Val("w").Str(); w != "9" {
		t.Errorf("terminator = %q, want 9 (failed guard must not consume the run)", w)
	}
}

func guardedCheckpointRules() map[int]event.Expr {
	return map[int]event.Expr{
		1: &event.Within{
			X: &event.Guarded{
				X:    &event.TSeqPlus{X: prim("s", "v", "t"), Lo: 0, Hi: 2 * time.Second},
				Cond: gbin(event.GuardGe, &event.GAgg{Op: event.AggSum, Name: "v"}, gint(20)),
			},
			Max: time.Minute,
		},
	}
}

// TestGuardedCheckpointRoundTrip splits a guarded TSEQ+ run across a
// save/restore: the restored accumulators must produce the same detection
// the uninterrupted engine does.
func TestGuardedCheckpointRoundTrip(t *testing.T) {
	first := []event.Observation{obs("s", "9", 1), obs("s", "8", 2)}
	second := []event.Observation{obs("s", "7", 3)} // sum 24 ≥ 20 → fires

	whole := runGuard(t, guardedCheckpointRules(), append(first, second...))

	split := newHarness(t, guardedCheckpointRules(), nil)
	split.feed(first...)
	var buf bytes.Buffer
	if err := split.eng.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"aggs"`) {
		t.Fatalf("checkpoint lacks aggregate accumulators: %s", buf.String())
	}
	restored := newHarness(t, guardedCheckpointRules(), nil)
	if err := restored.eng.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	restored.feed(second...)
	restored.eng.Close()

	if len(whole) != 1 || len(restored.sights) != 1 {
		t.Fatalf("whole=%d restored=%d detections, want 1 each", len(whole), len(restored.sights))
	}
	a, b := whole[0].inst, restored.sights[0].inst
	if a.Begin != b.Begin || a.End != b.End || a.Binds.String() != b.Binds.String() {
		t.Fatalf("restored detection %v %v != %v %v", b, b.Binds, a, a.Binds)
	}
}

// TestGuardedCheckpointCorruption patches the aggregate block of a valid
// checkpoint and expects each mutation to be rejected on restore.
func TestGuardedCheckpointCorruption(t *testing.T) {
	h := newHarness(t, guardedCheckpointRules(), nil)
	h.feed(obs("s", "9", 1), obs("s", "8", 2))
	var buf bytes.Buffer
	if err := h.eng.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var ck map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &ck); err != nil {
		t.Fatal(err)
	}

	mutate := func(name, wantErr string, mut func(open map[string]any)) {
		var nodes []map[string]any
		if err := json.Unmarshal(ck["nodes"], &nodes); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range nodes {
			if open, ok := n["open"].(map[string]any); ok {
				mut(open)
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no open sequence in checkpoint", name)
		}
		patched, err := json.Marshal(nodes)
		if err != nil {
			t.Fatal(err)
		}
		full := map[string]json.RawMessage{}
		for k, v := range ck {
			full[k] = v
		}
		full["nodes"] = patched
		doc, err := json.Marshal(full)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newHarness(t, guardedCheckpointRules(), nil)
		err = fresh.eng.RestoreCheckpoint(bytes.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: restore error = %v, want containing %q", name, err, wantErr)
		}
	}

	mutate("dropped accumulators", "aggregate accumulator", func(open map[string]any) {
		delete(open, "aggs")
	})
	mutate("extra accumulator", "aggregate accumulator", func(open map[string]any) {
		aggs := open["aggs"].([]any)
		open["aggs"] = append(aggs, aggs[0])
	})
	mutate("renamed variable", `variable "bogus"`, func(open map[string]any) {
		open["aggs"].([]any)[0].(map[string]any)["var"] = "bogus"
	})
	mutate("impossible count", "counts", func(open map[string]any) {
		acc := open["aggs"].([]any)[0].(map[string]any)["acc"].(map[string]any)
		acc["n"] = 99
	})
}

// TestGuardedSeqPlusTruncationBothModes drives a guarded run past
// MaxOpenSequence so the accumulators are rebuilt from the retained half.
func TestGuardedSeqPlusTruncationBothModes(t *testing.T) {
	rules := map[int]event.Expr{
		1: &event.Within{
			X: &event.Guarded{
				X:    &event.TSeqPlus{X: prim("s", "v", "t"), Lo: 0, Hi: 2 * time.Second},
				Cond: gbin(event.GuardGt, &event.GAgg{Op: event.AggCount, Name: "v"}, gint(1)),
			},
			Max: 10 * time.Minute,
		},
	}
	var history []event.Observation
	for i := 0; i < 12; i++ {
		history = append(history, obs("s", "2", 1+float64(i)))
	}
	// Each overflow past 4 sheds the older half (5 → 3 elements), so the
	// run that closes holds the reads at 9..12s.
	h := newHarness(t, rules, func(cfg *Config) { cfg.MaxOpenSequence = 4 })
	got := h.run(history...)
	if len(got) != 1 {
		t.Fatalf("detections = %d, want 1", len(got))
	}
	if b, e := got[0].inst.Begin, got[0].inst.End; b != ts(9) || e != ts(12) {
		t.Errorf("detected span [%v,%v], want [9s,12s]", b, e)
	}
	if v := got[0].inst.Binds.Val("v"); len(v.List()) != 4 {
		t.Errorf("retained run v = %v, want 4 elements", v)
	}
}

// TestGuardProgramHandCases runs hand-stated guard trees through
// compileGuard: connectives, payload coercion, time arithmetic, nulls and
// incomparable kinds.
func TestGuardProgramHandCases(t *testing.T) {
	b := event.Bindings{}.
		Set("i", event.IntValue(10)).
		Set("f", event.FloatValue(2.5)).
		Set("s", event.StringValue("27.5")).
		Set("w", event.StringValue("word")).
		Set("t1", event.TimeValue(ts(10))).
		Set("t2", event.TimeValue(ts(25)))
	flit := func(f float64) event.GExpr { return &event.GLit{V: event.FloatValue(f)} }
	slit := func(s string) event.GExpr { return &event.GLit{V: event.StringValue(s)} }
	cases := []struct {
		g    event.GExpr
		want bool
	}{
		{gbin(event.GuardGt, gvar("i"), gint(9)), true},
		{gbin(event.GuardGt, gvar("s"), gint(8)), true}, // payload coercion
		{gbin(event.GuardLt, gvar("s"), gint(8)), false},
		{gbin(event.GuardGe, gvar("f"), flit(2.5)), true},
		{gbin(event.GuardGt, gvar("t2"), gbin(event.GuardAdd, gvar("t1"), gint(5))), true},
		{gbin(event.GuardGt, gvar("t2"), gbin(event.GuardAdd, gvar("t1"), gint(20))), false},
		{gbin(event.GuardEq, gvar("w"), slit("word")), true},
		{gbin(event.GuardGt, gvar("w"), gint(1)), false},    // incomparable
		{gbin(event.GuardGt, gvar("none"), gint(0)), false}, // unbound → Null → false
		{gbin(event.GuardGt, gbin(event.GuardDiv, gvar("i"), gint(0)), gint(-1)), false},
		{&event.GNot{X: gbin(event.GuardEq, gvar("i"), gint(3))}, true},
		{gbin(event.GuardOr, gbin(event.GuardEq, gvar("i"), gint(3)), gbin(event.GuardEq, gvar("f"), flit(2.5))), true},
		{gbin(event.GuardAnd, gbin(event.GuardEq, gvar("i"), gint(10)), gbin(event.GuardEq, gvar("w"), slit("x"))), false},
		{gbin(event.GuardLt, &event.GNeg{X: gvar("i")}, gint(0)), true},
		{gbin(event.GuardEq, &event.GAgg{Op: event.AggCount, Name: "none"}, gint(0)), false}, // unbound aggregate → Null
	}
	for i, c := range cases {
		prog := compileGuard(c.g, nil)
		if got := event.GuardTruthy(prog(&guardCtx{lk: event.BindsLookup(b)})); got != c.want {
			t.Errorf("case %d %s: got %v, want %v", i, c.g, got, c.want)
		}
	}
}
