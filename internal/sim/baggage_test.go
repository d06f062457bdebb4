package sim

import (
	"reflect"
	"sort"
	"testing"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/rules"
	"rcep/internal/sqlmini"
	"rcep/internal/store"
)

func TestGenerateBaggageDeterministic(t *testing.T) {
	a := GenerateBaggage(DefaultBaggageConfig())
	b := GenerateBaggage(DefaultBaggageConfig())
	if !reflect.DeepEqual(a.Observations, b.Observations) {
		t.Fatalf("baggage generation not deterministic")
	}
	if !event.Batch(a.Observations).Sorted() {
		t.Fatalf("baggage stream not sorted")
	}
	if len(a.Truth.Lost) == 0 || len(a.Truth.Stray) == 0 {
		t.Fatalf("scenario degenerate: %+v", a.Truth)
	}
}

// TestBaggageEndToEnd: the two window-scoped negation rules find exactly
// the ground-truth mishandled bags — on-time bags trip neither rule,
// late bags only the lost rule, stray bags only the stray rule, and
// very late bags both.
func TestBaggageEndToEnd(t *testing.T) {
	sc := GenerateBaggage(DefaultBaggageConfig())

	rs, err := rules.ParseScript(BaggageRules)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if _, err := sqlmini.Exec(st, BaggageDDL, nil); err != nil {
		t.Fatal(err)
	}
	var lost, stray []string
	procs := rules.Procs{
		"lost_bag": func(_ rules.ActionContext, args []event.Value) error {
			lost = append(lost, args[0].Str())
			return nil
		},
		"stray_bag": func(_ rules.ActionContext, args []event.Value) error {
			stray = append(stray, args[0].Str())
			return nil
		},
	}
	x := rules.NewExecutor(rs, st, procs, nil)
	b := graph.NewBuilder()
	if err := x.Bind(b); err != nil {
		t.Fatal(err)
	}
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		TypeOf:   sc.Registry.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) { x.Dispatch(rid, inst) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sc.Observations {
		if err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	if errs := x.Errors(); len(errs) > 0 {
		t.Fatalf("executor errors: %v", errs)
	}

	sorted := func(in []string) []string {
		out := append([]string(nil), in...)
		sort.Strings(out)
		return out
	}
	if got, want := sorted(lost), sorted(sc.Truth.Lost); !reflect.DeepEqual(got, want) {
		t.Errorf("lost bags:\n got %v\nwant %v", got, want)
	}
	if got, want := sorted(stray), sorted(sc.Truth.Stray); !reflect.DeepEqual(got, want) {
		t.Errorf("stray bags:\n got %v\nwant %v", got, want)
	}

	// Every alarm also left a MISHANDLED row.
	tbl, err := st.Table("MISHANDLED")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	tbl.Scan(func(_ int64, _ store.Row) bool {
		rows++
		return true
	})
	if want := len(sc.Truth.Lost) + len(sc.Truth.Stray); rows != want {
		t.Fatalf("MISHANDLED rows: %d, want %d", rows, want)
	}
}
