package sqlmini

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

// kvTable builds t(k STRING, j STRING) holding rows, optionally with a
// hash index on k.
func kvTable(t *testing.T, indexed bool, rows ...[2]string) *store.Store {
	t.Helper()
	s := store.New()
	mustExec(t, s, `CREATE TABLE t (k STRING, j STRING)`, nil)
	for _, r := range rows {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES ('%s', '%s')`, r[0], r[1]), nil)
	}
	if indexed {
		tbl, _ := s.Table("t")
		if err := tbl.CreateIndex("k"); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestProbeShadowedNameIsColumn: in `k = j`, j names both a column and a
// parameter. Row evaluation resolves it to the column, so every row
// matches; the planner must not probe k's index with the parameter.
func TestProbeShadowedNameIsColumn(t *testing.T) {
	params := event.MakeBindings(map[string]event.Value{"j": event.StringValue("a")})
	for _, indexed := range []bool{false, true} {
		for _, tc := range []struct {
			sql  string
			want int64
		}{
			{`SELECT COUNT(*) FROM t WHERE k = j`, 2},
			{`UPDATE t SET j = 'z' WHERE k = j`, 2},
			{`DELETE FROM t WHERE j = k`, 2},
		} {
			s := kvTable(t, indexed, [2]string{"a", "a"}, [2]string{"b", "b"})
			res := mustExec(t, s, tc.sql, params)
			got := int64(res.RowsAffected)
			if len(res.Rows) > 0 {
				got = res.Rows[0][0].Int()
			}
			if got != tc.want {
				t.Errorf("indexed=%v: %s = %d, want %d", indexed, tc.sql, got, tc.want)
			}
		}
	}
}

// TestFailingStatementChangesNothing: an UPDATE or DELETE whose WHERE or
// SET fails on some row leaves every row, and the WAL, untouched.
func TestFailingStatementChangesNothing(t *testing.T) {
	for _, sql := range []string{
		`UPDATE t SET k = 'z' WHERE 1 / v = 1`,
		`DELETE FROM t WHERE 1 / v = 1`,
		`UPDATE t SET v = 10 / v`,
	} {
		s := store.New()
		mustExec(t, s, `CREATE TABLE t (k STRING, v INT)`, nil)
		for _, ins := range []string{`('a', 1)`, `('b', 0)`, `('c', 1)`} {
			mustExec(t, s, `INSERT INTO t VALUES `+ins, nil)
		}
		var wal bytes.Buffer
		w, err := store.NewWAL(s, &wal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Exec(s, sql, nil); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s: err = %v, want division by zero", sql, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if wal.Len() != 0 {
			t.Errorf("%s: journaled %q", sql, wal.String())
		}
		res := mustExec(t, s, `SELECT k, v FROM t`, nil)
		if got := fmt.Sprint(res.Rows); got != "[[a 1] [b 0] [c 1]]" {
			t.Errorf("%s: rows %s", sql, got)
		}
	}
}

// locationTable returns an RFID store whose OBJECTLOCATION holds three
// periods, the last open ('UC'), for each of objects objects.
func locationTable(tb testing.TB, objects int) *store.Store {
	tb.Helper()
	s := store.OpenRFID()
	tbl, err := s.Table(store.TableLocation)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		for start, end := range []event.Time{1, 2, store.UC} {
			row := []event.Value{locObject(i), event.StringValue("loc"), event.TimeValue(event.Time(start)), event.TimeValue(end)}
			if err := tbl.Insert(row); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

func locObject(i int) event.Value { return event.StringValue(fmt.Sprintf("urn:epc:obj:%d", i)) }

func mustParse(tb testing.TB, sql string) Stmt {
	tb.Helper()
	st, err := Parse(sql)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestAllocBudgetUpdateUC pins the allocations of Rule 3's prepared UC
// update (the `loc` family's action) against a 12k-row OBJECTLOCATION:
// the clone of the matching row it stores, and nothing when no row
// matches.
func TestAllocBudgetUpdateUC(t *testing.T) {
	const (
		objects       = 4000 // three periods each: 12k rows
		runs          = 50
		budgetMatch   = 1
		budgetNoMatch = 0
	)
	s := locationTable(t, objects)
	upd := PrepareStmt(mustParse(t, `UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC'`))
	params := make([]event.Bindings, runs+1) // AllocsPerRun makes one warm-up call
	for i := range params {
		params[i] = event.MakeBindings(map[string]event.Value{"o": locObject(i), "t": event.TimeValue(9)})
	}
	exec := func(p event.Bindings, want int) {
		res, err := upd.Exec(s, p)
		if err != nil || res.RowsAffected != want {
			t.Fatalf("update: %v, err %v, want %d row(s)", res, err, want)
		}
	}
	next := 0
	match := testing.AllocsPerRun(runs, func() {
		exec(params[next], 1)
		next++
	})
	// Every object in params now has no open period left.
	noMatch := testing.AllocsPerRun(runs, func() { exec(params[0], 0) })
	if match > budgetMatch || noMatch > budgetNoMatch {
		t.Errorf("allocs per UC update: %.1f matching (budget %d), %.1f not matching (budget %d)",
			match, budgetMatch, noMatch, budgetNoMatch)
	}
}

// FuzzProbeMatchesScan runs random SELECT, UPDATE and DELETE statements
// against three copies of one table: one with hash indexes on k, n and at,
// one without, where a probe prefilters the scan, and a reference whose
// statements run with the probe forced off (see execWhereOnly), so it
// evaluates the WHERE on every row. All three must give the same results,
// the same rows in scan order and the same journaled mutations. The rows
// mix every kind the columns coerce (strings that look like ints, times
// and 'UC'; nulls); WHERE clauses are conjunctions whose value sides are
// literals or parameters, including a parameter that shadows a column.
func FuzzProbeMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		data := make([]byte, 24+seed)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		rows := make([][]event.Value, 2+g.intn(14))
		for i := range rows {
			rows[i] = []event.Value{g.value(), g.value(), g.value(), g.value()}
		}
		params := event.MakeBindings(map[string]event.Value{
			"p0": g.value(), "p1": g.value(), "p2": g.value(), "v": g.value(),
		})
		indexed, idxLog := fuzzTable(t, rows, true)
		plain, plainLog := fuzzTable(t, rows, false)
		ref, refLog := fuzzTable(t, rows, false)
		for n := 1 + g.intn(4); n > 0; n-- {
			sql := g.stmt()
			want, wantErr := execWhereOnly(t, ref, sql, params)
			for name, s := range map[string]*store.Store{"indexed": indexed, "prefiltered": plain} {
				got, gotErr := Exec(s, sql, params)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || jsonOf(t, got) != jsonOf(t, want) {
					t.Fatalf("%s with %v:\n%s %v, %v\nwhere-only %v, %v", sql, params, name, got, gotErr, want, wantErr)
				}
			}
		}
		want, wantLog := scanRows(t, ref), jsonOf(t, *refLog)
		for name, c := range map[string]struct {
			s   *store.Store
			log *[]store.Mutation
		}{"indexed": {indexed, idxLog}, "prefiltered": {plain, plainLog}} {
			if got := scanRows(t, c.s); got != want {
				t.Fatalf("rows differ:\n%s %s\nwhere-only %s", name, got, want)
			}
			if got := jsonOf(t, *c.log); got != wantLog {
				t.Fatalf("journals differ:\n%s %s\nwhere-only %s", name, got, wantLog)
			}
		}
	})
}

// execWhereOnly runs one of fuzzGen's statements as Exec does, through
// the same match planner, but with the planned probe dropped: the store
// evaluates the WHERE on every row.
func execWhereOnly(t *testing.T, s *store.Store, sql string, params event.Bindings) (Result, error) {
	t.Helper()
	plan := func(table string, where Expr) (*store.Table, matcher) {
		tbl, err := s.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		m := planMatch(s, tbl, where, params)
		m.probe = store.Probe{}
		return tbl, m
	}
	switch st := mustParse(t, sql).(type) {
	case *Update:
		tbl, m := plan(st.Table, st.Where)
		return updateRows(tbl, st, m)
	case *Delete:
		return deleteRows(plan(st.Table, st.Where))
	case *Select: // SELECT * FROM t WHERE ...
		tbl, m := plan(st.Table, st.Where)
		var res Result
		for _, c := range tbl.Schema() {
			res.Columns = append(res.Columns, c.Name)
		}
		if err := m.matchRows(tbl, func(r store.Row) { res.Rows = append(res.Rows, r) }); err != nil {
			return Result{}, err
		}
		return res, nil
	}
	t.Fatalf("unexpected statement %s", sql)
	return Result{}, nil
}

// jsonOf renders v as JSON, which tags every event.Value with its kind.
// Values hold their payloads behind a pointer, so reflect.DeepEqual would
// compare string addresses; comparing these renderings is as strict on
// contents (-0 and 0 differ, and a NaN fails to render).
func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fuzzTable creates t(k STRING, n INT, at TIME, v INT) holding the rows
// that coerce, journaling every later mutation.
func fuzzTable(t *testing.T, rows [][]event.Value, indexed bool) (*store.Store, *[]store.Mutation) {
	s := store.New()
	mustExec(t, s, `CREATE TABLE t (k STRING, n INT, at TIME, v INT)`, nil)
	tbl, _ := s.Table("t")
	for _, r := range rows {
		_ = tbl.Insert(r) // a value that does not coerce drops the row from both copies
	}
	if indexed {
		for _, col := range []string{"k", "n", "at"} {
			if err := tbl.CreateIndex(col); err != nil {
				t.Fatal(err)
			}
		}
	}
	log := new([]store.Mutation)
	s.SetJournal(func(m store.Mutation) { *log = append(*log, m) })
	return s, log
}

func scanRows(t *testing.T, s *store.Store) string {
	tbl, _ := s.Table("t")
	var sb strings.Builder
	tbl.Scan(func(id int64, r store.Row) bool {
		fmt.Fprintf(&sb, "%d:%v ", id, r)
		return true
	})
	return sb.String()
}

// fuzzGen turns fuzz bytes into table contents and statements; it reads
// zeros once the bytes run out.
type fuzzGen struct {
	data []byte
	pos  int
}

func (g *fuzzGen) intn(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1]) % n
}

func pick[T any](g *fuzzGen, xs ...T) T { return xs[g.intn(len(xs))] }

// value draws a value of any kind the columns coerce, biased towards
// collisions between kinds' display forms ("5" and 5, "+inf" and UC).
func (g *fuzzGen) value() event.Value {
	return pick(g,
		event.Null,
		event.StringValue("a"), event.StringValue("b"), event.StringValue("5"),
		event.StringValue("UC"), event.StringValue("+inf"), event.StringValue("0.000s"),
		event.IntValue(0), event.IntValue(5), event.IntValue(-1),
		event.TimeValue(0), event.TimeValue(5), event.TimeValue(store.UC),
	)
}

func (g *fuzzGen) operand() string {
	return pick(g, "NULL", "'a'", "'b'", "'5'", "'UC'", "'+inf'", "'0.000s'", "5", "0", "p0", "p1", "p2", "v")
}

func (g *fuzzGen) conjunct() string {
	col := pick(g, "k", "n", "at", "v")
	op := pick(g, "=", "=", "=", "!=", "<", ">=")
	if g.intn(2) == 0 {
		return col + " " + op + " " + g.operand()
	}
	return g.operand() + " " + op + " " + col
}

func (g *fuzzGen) where() string {
	w := g.conjunct()
	for n := g.intn(3); n > 0; n-- {
		switch g.intn(4) {
		case 0:
			w = "(" + w + ") AND " + g.conjunct()
		case 1:
			w = g.conjunct() + " AND (" + w + " OR " + g.conjunct() + ")"
		default:
			w = g.conjunct() + " AND " + w
		}
	}
	return w
}

func (g *fuzzGen) stmt() string {
	switch g.intn(4) {
	case 0:
		return "SELECT * FROM t WHERE " + g.where()
	case 1:
		return "DELETE FROM t WHERE " + g.where()
	}
	return fmt.Sprintf("UPDATE t SET %s = %s, v = 7 WHERE %s", pick(g, "k", "n", "at"), g.operand(), g.where())
}
