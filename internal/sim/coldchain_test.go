package sim

import (
	"reflect"
	"strconv"
	"testing"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/rules"
	"rcep/internal/sqlmini"
	"rcep/internal/store"
)

func TestGenerateColdChainDeterministic(t *testing.T) {
	a := GenerateColdChain(DefaultColdChainConfig())
	b := GenerateColdChain(DefaultColdChainConfig())
	if !reflect.DeepEqual(a.Observations, b.Observations) {
		t.Fatalf("cold-chain generation not deterministic")
	}
	if !event.Batch(a.Observations).Sorted() {
		t.Fatalf("cold-chain stream not sorted")
	}
	if len(a.Truth.Excursions) == 0 || len(a.Truth.Jumps) == 0 {
		t.Fatalf("scenario degenerate: %+v", a.Truth)
	}
}

// TestColdChainEndToEnd: the aggregate-guarded TSEQ+ rule finds exactly
// the ground-truth excursions (warm-but-short runs and long-but-cold
// runs stay silent), and the inequality-guarded SEQ rule finds exactly
// the warm-up jumps.
func TestColdChainEndToEnd(t *testing.T) {
	sc := GenerateColdChain(DefaultColdChainConfig())

	rs, err := rules.ParseScript(ColdChainRules)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if _, err := sqlmini.Exec(st, ColdChainDDL, nil); err != nil {
		t.Fatal(err)
	}
	type excursion struct {
		count int
		peak  float64
	}
	var excursions []excursion
	var jumps [][2]string
	procs := rules.Procs{
		"excursion_alarm": func(_ rules.ActionContext, args []event.Value) error {
			peak, err := strconv.ParseFloat(args[1].String(), 64)
			if err != nil {
				return err
			}
			excursions = append(excursions, excursion{count: int(args[0].Int()), peak: peak})
			return nil
		},
		"jump_alarm": func(_ rules.ActionContext, args []event.Value) error {
			jumps = append(jumps, [2]string{args[0].Str(), args[1].Str()})
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

	if len(excursions) != len(sc.Truth.Excursions) {
		t.Fatalf("excursions: %d, want %d (%v)", len(excursions), len(sc.Truth.Excursions), excursions)
	}
	for i, want := range sc.Truth.Excursions {
		got := excursions[i]
		if got.count != want.Count || got.peak != want.Peak {
			t.Errorf("excursion %d: count %d peak %g, want count %d peak %g",
				i, got.count, got.peak, want.Count, want.Peak)
		}
	}
	if !reflect.DeepEqual(jumps, sc.Truth.Jumps) {
		t.Fatalf("jumps:\n got %v\nwant %v", jumps, sc.Truth.Jumps)
	}

	// The INSERT action folded the same aggregates into EXCURSIONS.
	tbl, err := st.Table("EXCURSIONS")
	if err != nil {
		t.Fatal(err)
	}
	var rows []excursion
	tbl.Scan(func(_ int64, r store.Row) bool {
		rows = append(rows, excursion{count: int(r[0].Int()), peak: r[2].Float()})
		return true
	})
	if len(rows) != len(sc.Truth.Excursions) {
		t.Fatalf("EXCURSIONS rows: %d, want %d", len(rows), len(sc.Truth.Excursions))
	}
	for i, want := range sc.Truth.Excursions {
		if rows[i].count != want.Count || rows[i].peak != want.Peak {
			t.Errorf("EXCURSIONS row %d: %+v, want count %d peak %g", i, rows[i], want.Count, want.Peak)
		}
	}
}
