package rules

import (
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/store"
)

// bindRFID parses script and binds it to an executor on a fresh RFID
// store, with the given procedures and no firing log.
func bindRFID(t *testing.T, script string, procs Procs) (*Executor, *store.Store) {
	t.Helper()
	st := store.OpenRFID()
	x := NewExecutor(mustParse(t, script), st, procs, nil)
	x.TraceFirings = false
	if err := x.Bind(graph.NewBuilder()); err != nil {
		t.Fatal(err)
	}
	return x, st
}

// TestAllocBudgetFiring pins what one firing allocates on the RFID store:
// the rows it stores, plus one element view per BULK INSERT statement.
// The merged bindings, the statements' results and the per-row element
// views are not allocated at all. The location rule closes the object's
// open row on every firing, so it stores two rows: the closed clone and
// the new one.
func TestAllocBudgetFiring(t *testing.T) {
	const runs = 50
	str, at := event.StringValue, event.TimeValue
	for _, tc := range []struct {
		name, do string
		binds    event.Bindings
		budget   float64
	}{
		{"location", `IF true
DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC';
   INSERT INTO OBJECTLOCATION VALUES (o, r, t, 'UC')`,
			event.MakeBindings(map[string]event.Value{"r": str("dock1"), "o": str("case-1"), "t": at(5)}), 2},
		{"insert", `IF true
DO INSERT INTO INVENTORY VALUES ('shelf1', o, t, 'UC')`,
			event.MakeBindings(map[string]event.Value{"r": str("shelf1"), "o": str("item-1"), "t": at(5)}), 1},
		{"bulk of 3", `IF true
DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')`,
			event.MakeBindings(map[string]event.Value{
				"o1": event.ListValue([]event.Value{str("item-1"), str("item-2"), str("item-3")}),
				"o2": str("case-1"), "t2": at(5),
			}), 3 + 1},
		{"condition false", `IF o = 'nobody'
DO INSERT INTO INVENTORY VALUES ('shelf1', o, t, 'UC')`,
			event.MakeBindings(map[string]event.Value{"r": str("shelf1"), "o": str("item-1"), "t": at(5)}), 0},
	} {
		x, st := bindRFID(t, "CREATE RULE r1, "+tc.name+"\nON observation(r, o, t)\n"+tc.do, nil)
		loc, _ := st.Table(store.TableLocation)
		if err := loc.Insert([]event.Value{str("case-1"), str("dock0"), at(1), at(store.UC)}); err != nil {
			t.Fatal(err)
		}
		inst := &event.Instance{Begin: 5, End: 5, Binds: tc.binds}
		allocs := testing.AllocsPerRun(runs, func() { x.Dispatch(0, inst) })
		if errs := x.Errors(); len(errs) > 0 {
			t.Fatalf("%s: %v", tc.name, errs[0])
		}
		open := 0
		_ = loc.Lookup("object_epc", str("case-1"), func(_ int64, r store.Row) bool {
			if r[3].Time() == store.UC {
				open++
			}
			return true
		})
		if open != 1 {
			t.Fatalf("%s: case-1 has %d open locations, want 1", tc.name, open)
		}
		t.Logf("%s: %.0f allocs per firing", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocs per firing, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// TestNestedDispatchKeepsOuterBindings: a procedure that dispatches
// another rule (as one that ingests does) leaves the outer firing's
// arguments and bindings as they were, for itself and for the outer
// firing's next action.
func TestNestedDispatchKeepsOuterBindings(t *testing.T) {
	var x *Executor
	var seen []string
	inner := &event.Instance{Begin: 7, End: 9, Binds: event.MakeBindings(map[string]event.Value{
		"a": event.StringValue("inner-a"), "o": event.StringValue("inner"), "z": event.StringValue("inner-z"),
	})}
	x, _ = bindRFID(t, `
CREATE RULE outer, outer
ON observation(r, o, t)
IF true
DO nest(o, r); record(o, r, event_begin)

CREATE RULE inner, inner
ON observation(r, o, t)
IF true
DO record(a, o, z, event_end)
`, Procs{
		"nest": func(_ ActionContext, args []event.Value) error {
			x.Dispatch(1, inner)
			seen = append(seen, "nest after inner: "+args[0].String()+","+args[1].String())
			return nil
		},
		"record": func(ctx ActionContext, args []event.Value) error {
			s := ctx.RuleID + ":"
			for _, a := range args {
				s += " " + a.String()
			}
			seen = append(seen, s)
			return nil
		},
	})
	x.Dispatch(0, &event.Instance{Begin: 1, End: 1, Binds: event.MakeBindings(map[string]event.Value{
		"o": event.StringValue("outer"), "r": event.StringValue("dock"), "t": event.TimeValue(1),
	})})
	if errs := x.Errors(); len(errs) > 0 {
		t.Fatal(errs)
	}
	want := []string{
		"inner: inner-a inner inner-z " + event.TimeValue(9).String(),
		"nest after inner: outer,dock",
		"outer: outer dock " + event.TimeValue(1).String(),
	}
	if len(seen) != len(want) {
		t.Fatalf("calls %q, want %q", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("calls %q, want %q", seen, want)
		}
	}
}
