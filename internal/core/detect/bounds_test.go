package detect

import (
	"fmt"
	"testing"
	"time"

	"rcep/internal/core/event"
)

// obsAt is an observation at an exact instant, for tests that sit on a
// bound to the nanosecond.
func obsAt(reader, object string, at event.Time) event.Observation {
	return event.Observation{Reader: reader, Object: object, At: at}
}

// spans renders detections as rule|begin|end|bindings, in order.
func spans(ds []detection) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%d|%v|%v|%v", d.rule, d.inst.Begin, d.inst.End, d.inst.Binds)
	}
	return out
}

// TestAndPairsDistinctSides: a positive two-child AND pairs an instance of
// one side with one of the other, never with its own side. An object seen
// twice at r1 and never at r2 does not satisfy
// WITHIN(observation('r1', o, t1) AND observation('r2', o, t2), 10sec).
func TestAndPairsDistinctSides(t *testing.T) {
	rule := func() map[int]event.Expr {
		return map[int]event.Expr{1: &event.Within{
			X:   &event.And{L: prim("r1", "o", "t1"), R: prim("r2", "o", "t2")},
			Max: 10 * time.Second,
		}}
	}
	if got := newHarness(t, rule(), nil).run(obs("r1", "o1", 1), obs("r1", "o1", 2)); len(got) != 0 {
		t.Errorf("two r1 sightings fired the AND: %v", spans(got))
	}
	got := newHarness(t, rule(), nil).run(obs("r1", "o1", 1), obs("r1", "o1", 2), obs("r2", "o1", 3))
	if len(got) != 1 || got[0].inst.Binds.Val("t1").Time() != ts(1) || got[0].inst.Binds.Val("t2").Time() != ts(3) {
		t.Errorf("r1, r1, r2: got %v, want one detection pairing t1=1s with t2=3s", spans(got))
	}
}

// TestNegationFirstMatchesNegationSecond: WITHIN(NOT N AND P, w) is the
// same rule as WITHIN(P AND NOT N, w), whichever side the negation is
// written on: a clean P fires once its window closes, and an N inside the
// window, before or after P, blocks it.
func TestNegationFirstMatchesNegationSecond(t *testing.T) {
	p, n := prim("r1", "o1", "t1"), prim("r2", "o2", "t2")
	stream := []event.Observation{
		obs("r1", "L1", 10), // clean: fires at 20s
		obs("r2", "u1", 25),
		obs("r1", "L2", 30), // N 5s before: blocked
		obs("r1", "L3", 50),
		obs("r2", "u2", 55), // N 5s after: blocked
		obs("r1", "L4", 80), // clean: fires at 90s
	}
	run := func(and *event.And) []string {
		h := newHarness(t, map[int]event.Expr{1: &event.Within{X: and, Max: 10 * time.Second}}, nil)
		h.feed(stream...)
		if err := h.eng.AdvanceTo(ts(100)); err != nil {
			t.Fatal(err)
		}
		return spans(h.sights)
	}
	second := run(&event.And{L: p, R: &event.Not{X: n}})
	first := run(&event.And{L: &event.Not{X: n}, R: p})
	if len(second) != 2 {
		t.Fatalf("P AND NOT N: %v, want the detections of L1 and L4", second)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("NOT N AND P detected\n%v\nP AND NOT N detected\n%v", first, second)
	}
}

// TestTSeqDistAtBounds: TSEQ's distance bounds are closed. A pair exactly
// at Lo or exactly at Hi detects; a pair 1ns inside the gap below Lo or
// 1ns past Hi does not.
func TestTSeqDistAtBounds(t *testing.T) {
	const lo, hi = 2 * time.Second, 4 * time.Second
	for _, tc := range []struct {
		dist time.Duration
		want int
	}{{lo - 1, 0}, {lo, 1}, {hi, 1}, {hi + 1, 0}} {
		h := newHarness(t, map[int]event.Expr{
			1: &event.TSeq{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2"), Lo: lo, Hi: hi},
		}, nil)
		start := ts(10)
		if got := h.run(obsAt("r1", "a", start), obsAt("r2", "b", start.Add(tc.dist))); len(got) != tc.want {
			t.Errorf("dist %v: %d detections, want %d", tc.dist, len(got), tc.want)
		}
	}
}

// TestWithinAtBound: WITHIN's bound is closed. A span of exactly w
// detects; a span of w + 1ns does not.
func TestWithinAtBound(t *testing.T) {
	const w = 10 * time.Second
	for _, tc := range []struct {
		span time.Duration
		want int
	}{{w, 1}, {w + 1, 0}} {
		h := newHarness(t, map[int]event.Expr{
			1: &event.Within{X: &event.And{L: prim("r1", "o1", "t1"), R: prim("r2", "o2", "t2")}, Max: w},
		}, nil)
		start := ts(10)
		if got := h.run(obsAt("r1", "a", start), obsAt("r2", "b", start.Add(tc.span))); len(got) != tc.want {
			t.Errorf("span %v: %d detections, want %d", tc.span, len(got), tc.want)
		}
	}
}
