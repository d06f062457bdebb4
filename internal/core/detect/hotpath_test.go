package detect

import (
	"fmt"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

func buildGraph(t testing.TB, rules map[int]event.Expr) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for id := 1; id <= len(rules); id++ {
		if _, err := b.AddRule(id, rules[id]); err != nil {
			t.Fatalf("AddRule(%d): %v", id, err)
		}
	}
	return b.Finalize()
}

func primPattern(reader string) *event.Prim {
	return &event.Prim{
		Reader: event.Term{Lit: reader},
		Object: event.Term{Var: "o"},
		At:     event.Term{Var: "t"},
	}
}

// TestAllocBudgetMatch pins the compiled ingest→match path at ≤2
// allocations per matching event (one exact-size Bindings, one Instance).
// A pooling or interning regression fails here instead of silently
// eroding throughput.
func TestAllocBudgetMatch(t *testing.T) {
	g := buildGraph(t, map[int]event.Expr{1: primPattern("r1")})
	eng, err := New(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	now := event.Time(0)
	ingest := func() {
		now += event.Time(time.Second)
		if err := eng.Ingest(event.Observation{Reader: "r1", Object: "tag-7", At: now}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		ingest() // warm the intern table and caches
	}
	if avg := testing.AllocsPerRun(200, ingest); avg > 2 {
		t.Fatalf("matching event allocates %.1f/op, budget is 2", avg)
	}
}

// TestAllocBudgetNonMatch pins the reject path at zero allocations: an
// observation matching no pattern must cost only interned compares.
func TestAllocBudgetNonMatch(t *testing.T) {
	g := buildGraph(t, map[int]event.Expr{1: primPattern("r1")})
	eng, err := New(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	now := event.Time(0)
	ingest := func() {
		now += event.Time(time.Second)
		if err := eng.Ingest(event.Observation{Reader: "r9", Object: "tag-7", At: now}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		ingest()
	}
	if avg := testing.AllocsPerRun(200, ingest); avg > 0 {
		t.Fatalf("non-matching event allocates %.1f/op, budget is 0", avg)
	}
}

// TestAllocBudgetNegation bounds the pseudo-event-heavy path: an infield
// pattern schedules a pseudo event and runs a filtered negation query per
// observation. With the pseudo and filter freelists warm this stays
// within a small constant (primitive binds+instance, the emitted sequence
// instance, and history bookkeeping).
func TestAllocBudgetNegation(t *testing.T) {
	rule := &event.Within{
		X: &event.Seq{
			L: &event.Not{X: primPattern("r1")},
			R: primPattern("r2"),
		},
		Max: 4 * time.Second,
	}
	g := buildGraph(t, map[int]event.Expr{1: rule})
	eng, err := New(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	now := event.Time(0)
	ingest := func() {
		now += event.Time(10 * time.Second) // outside the window: every query is clean
		if err := eng.Ingest(event.Observation{Reader: "r2", Object: "tag-7", At: now}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		ingest()
	}
	if avg := testing.AllocsPerRun(300, ingest); avg > 6 {
		t.Fatalf("negation-path event allocates %.1f/op, budget is 6", avg)
	}
}

// TestAllocBudgetRunClose pins a closing TSEQ+ run at zero allocations:
// the run's list bindings and their values come from the engine's arenas,
// like its elements' bindings and instances. A run of 4 elements binds 2
// variables, so a list per variable on the heap would cost 3 per close.
func TestAllocBudgetRunClose(t *testing.T) {
	rule := &event.TSeqPlus{X: prim("r1", "o", "t"), Lo: 0, Hi: time.Second}
	runs := 0
	eng, err := New(Config{Graph: buildGraph(t, map[int]event.Expr{1: rule}),
		OnDetect: func(_ int, inst *event.Instance) {
			if inst.Binds.Val("o").Len() == 4 {
				runs++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	now := event.Time(0)
	run := func() { // closes the run before it
		now += event.Time(10 * time.Second)
		for i := range 4 {
			at := now.Add(time.Duration(i) * 100 * time.Millisecond)
			if err := eng.Ingest(event.Observation{Reader: "r1", Object: "tag-7", At: at}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 100; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg > 0 {
		t.Fatalf("a TSEQ+ run and its close allocate %.1f, budget is 0", avg)
	}
	if runs != 300 {
		t.Fatalf("%d runs of 4 closed, want 300", runs)
	}
}

// TestAllocBudgetNewObject pins the cost of a join key's first sighting on
// the duplicate-filter join: the interned object string is the partition
// key and reclaimed partitions recycle, so an object never seen before
// costs at most one allocation (amortized intern-table and slab growth).
func TestAllocBudgetNewObject(t *testing.T) {
	rule := &event.Within{
		X:   &event.Seq{L: prim("r1", "o", "t1"), R: prim("r1", "o", "t2")},
		Max: 5 * time.Second,
	}
	eng, err := New(Config{Graph: buildGraph(t, map[int]event.Expr{1: rule})})
	if err != nil {
		t.Fatal(err)
	}
	const warm, runs = 2000, 2000
	names := make([]string, warm+runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("epc-%d", i)
	}
	now, next := event.Time(0), 0
	ingest := func() {
		now += event.Time(time.Second)
		if err := eng.Ingest(event.Observation{Reader: "r1", Object: names[next], At: now}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < warm; i++ {
		ingest()
	}
	if avg := testing.AllocsPerRun(runs, ingest); avg > 1 {
		t.Fatalf("first-seen object allocates %.2f/op, budget is 1", avg)
	}
}

// TestPooledNoAliasingIntoDetections pins the pooling contract of
// DESIGN.md §9: recycled pseudo events and filter bindings must never
// alias into delivered detections. Every detection is rendered at
// delivery time; after the stream — driven through IngestBatch,
// AdvanceBefore catch-ups, and Close so pools cycle heavily — the same
// retained instances must render identically.
func TestPooledNoAliasingIntoDetections(t *testing.T) {
	rules := map[int]event.Expr{
		1: &event.Within{ // infield negation: exercises filters + pseudo events
			X:   &event.Seq{L: &event.Not{X: primPattern("r1")}, R: primPattern("r1")},
			Max: 3 * time.Second,
		},
		2: &event.Within{ // negated conjunction: PseudoAndNotExpire path
			X:   &event.And{L: primPattern("r2"), R: &event.Not{X: primPattern("r3")}},
			Max: 2 * time.Second,
		},
		3: &event.Seq{L: primPattern("r2"), R: primPattern("r3")}, // joined pairing
	}
	g := buildGraph(t, rules)
	render := func(rid int, inst *event.Instance) string {
		return fmt.Sprintf("%d|%s|%s|%s|%d", rid, inst.Begin, inst.End, inst.Binds.String(), inst.Seq)
	}
	var atDelivery []string
	var retained []*event.Instance
	var retainedRule []int
	eng, err := New(Config{Graph: g, OnDetect: func(rid int, inst *event.Instance) {
		atDelivery = append(atDelivery, render(rid, inst))
		retained = append(retained, inst)
		retainedRule = append(retainedRule, rid)
	}})
	if err != nil {
		t.Fatal(err)
	}
	readers := []string{"r1", "r2", "r3"}
	objects := []string{"a", "b"}
	now := event.Time(0)
	for i := 0; i < 120; i++ {
		var batch []event.Observation
		for j := 0; j < 3; j++ {
			now += event.Time(700 * time.Millisecond)
			batch = append(batch, event.Observation{
				Reader: readers[(i+j)%len(readers)],
				Object: objects[(i*3+j)%len(objects)],
				At:     now,
			})
		}
		if err := eng.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			now += event.Time(5 * time.Second)
			if err := eng.AdvanceBefore(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Close()
	if len(atDelivery) == 0 {
		t.Fatal("workload produced no detections; test is vacuous")
	}
	for i, inst := range retained {
		if got := render(retainedRule[i], inst); got != atDelivery[i] {
			t.Fatalf("detection %d mutated after delivery:\n  at delivery: %s\n  afterwards:  %s", i, atDelivery[i], got)
		}
	}
}
