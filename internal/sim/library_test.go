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

func TestGenerateLibraryDeterministic(t *testing.T) {
	a := GenerateLibrary(DefaultLibraryConfig())
	b := GenerateLibrary(DefaultLibraryConfig())
	if !reflect.DeepEqual(a.Observations, b.Observations) {
		t.Fatalf("library generation not deterministic")
	}
	if !event.Batch(a.Observations).Sorted() {
		t.Fatalf("library stream not sorted")
	}
	if len(a.Truth.Loans) == 0 || len(a.Truth.Thefts) == 0 || len(a.Truth.Returned) == 0 {
		t.Fatalf("scenario degenerate: %+v", a.Truth)
	}
}

// TestLibraryEndToEnd: the AND-join checkout rule associates books with
// patrons, returns close loans, and the gate rule's store-backed
// condition catches exactly the thefts.
func TestLibraryEndToEnd(t *testing.T) {
	sc := GenerateLibrary(DefaultLibraryConfig())

	rs, err := rules.ParseScript(LibraryRules)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if _, err := sqlmini.Exec(st, LibraryLoansDDL, nil); err != nil {
		t.Fatal(err)
	}
	var receipts [][2]string
	var alarms []string
	procs := rules.Procs{
		"checkout_receipt": func(_ rules.ActionContext, args []event.Value) error {
			receipts = append(receipts, [2]string{args[0].Str(), args[1].Str()})
			return nil
		},
		"theft_alarm": func(_ rules.ActionContext, args []event.Value) error {
			alarms = append(alarms, args[0].Str())
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

	// Every loan got a receipt with the right patron.
	if len(receipts) != len(sc.Truth.Loans) {
		t.Fatalf("receipts: %d, want %d", len(receipts), len(sc.Truth.Loans))
	}
	for _, r := range receipts {
		if sc.Truth.Loans[r[0]] != r[1] {
			t.Errorf("loan %s → %s, truth says %s", r[0], r[1], sc.Truth.Loans[r[0]])
		}
	}
	// Alarms are exactly the thefts.
	sort.Strings(alarms)
	wantAlarms := append([]string(nil), sc.Truth.Thefts...)
	sort.Strings(wantAlarms)
	if !reflect.DeepEqual(alarms, wantAlarms) {
		t.Fatalf("alarms:\n got %v\nwant %v", alarms, wantAlarms)
	}
	// Returned books have closed loans; unreturned loans stay open.
	loansTbl, _ := st.Table("LOANS")
	open := map[string]bool{}
	loansTbl.Scan(func(_ int64, r store.Row) bool {
		if r[3].Time() == store.UC {
			open[r[0].Str()] = true
		}
		return true
	})
	for _, ret := range sc.Truth.Returned {
		if open[ret] {
			t.Errorf("returned book %s still has an open loan", ret)
		}
	}
	wantOpen := len(sc.Truth.Loans) - len(sc.Truth.Returned)
	if len(open) != wantOpen {
		t.Errorf("open loans: %d, want %d", len(open), wantOpen)
	}
}
