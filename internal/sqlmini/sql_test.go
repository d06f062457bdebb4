package sqlmini

import (
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

func ts(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }

func mustExec(t *testing.T, s *store.Store, sql string, params event.Bindings) *Result {
	t.Helper()
	res, err := Exec(s, sql, params)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func newDB(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	mustExec(t, s, `CREATE TABLE items (epc STRING, qty INT, price FLOAT, at TIME)`, nil)
	for _, row := range []string{
		`INSERT INTO items VALUES ('a1', 10, 1.5, 100)`,
		`INSERT INTO items VALUES ('a2', 20, 2.5, 200)`,
		`INSERT INTO items VALUES ('b1', 30, 3.5, 300)`,
		`INSERT INTO items VALUES ('b2', 40, 4.5, 400)`,
	} {
		mustExec(t, s, row, nil)
	}
	return s
}

func TestCreateInsertSelectStar(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT * FROM items`, nil)
	if len(res.Rows) != 4 || len(res.Columns) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if res.Columns[0] != "epc" || res.Rows[0][0].Str() != "a1" {
		t.Errorf("first row: %v", res.Rows[0])
	}
}

func TestSelectWhereComparisons(t *testing.T) {
	s := newDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT * FROM items WHERE qty > 20`, 2},
		{`SELECT * FROM items WHERE qty >= 20`, 3},
		{`SELECT * FROM items WHERE qty < 20`, 1},
		{`SELECT * FROM items WHERE qty != 10`, 3},
		{`SELECT * FROM items WHERE epc = 'b1'`, 1},
		{`SELECT * FROM items WHERE epc = 'b1' OR epc = 'a1'`, 2},
		{`SELECT * FROM items WHERE qty > 10 AND qty < 40`, 2},
		{`SELECT * FROM items WHERE NOT qty = 10`, 3},
		{`SELECT * FROM items WHERE epc LIKE 'a%'`, 2},
		{`SELECT * FROM items WHERE epc LIKE '_1'`, 2},
		{`SELECT * FROM items WHERE epc NOT LIKE 'a%'`, 2},
		{`SELECT * FROM items WHERE qty IN (10, 40)`, 2},
		{`SELECT * FROM items WHERE qty NOT IN (10, 40)`, 2},
		{`SELECT * FROM items WHERE price IS NULL`, 0},
		{`SELECT * FROM items WHERE price IS NOT NULL`, 4},
		{`SELECT * FROM items WHERE qty + 10 = 30`, 1},
		{`SELECT * FROM items WHERE qty * 2 >= 60`, 2},
		{`SELECT * FROM items WHERE qty % 20 = 0`, 2},
		{`SELECT * FROM items WHERE (qty = 10 OR qty = 20) AND epc LIKE 'a%'`, 2},
	}
	for _, c := range cases {
		res := mustExec(t, s, c.sql, nil)
		if len(res.Rows) != c.want {
			t.Errorf("%s: got %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestSelectProjectionAndAlias(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT epc, qty * 2 AS dbl FROM items WHERE epc = 'a1'`, nil)
	if len(res.Rows) != 1 || res.Columns[1] != "dbl" || res.Rows[0][1].Int() != 20 {
		t.Fatalf("projection: %v %v", res.Columns, res.Rows)
	}
}

func TestSelectOrderByLimit(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT epc FROM items ORDER BY qty DESC LIMIT 2`, nil)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "b2" || res.Rows[1][0].Str() != "b1" {
		t.Fatalf("order/limit: %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT * FROM items ORDER BY epc DESC`, nil)
	if res.Rows[0][0].Str() != "b2" {
		t.Fatalf("order desc: %v", res.Rows[0])
	}
	res = mustExec(t, s, `SELECT * FROM items LIMIT 0`, nil)
	if len(res.Rows) != 0 {
		t.Fatalf("limit 0: %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT COUNT(*), SUM(qty), AVG(qty), MIN(qty), MAX(qty) FROM items`, nil)
	r := res.Rows[0]
	if r[0].Int() != 4 || r[1].Int() != 100 || r[2].Float() != 25 || r[3].Int() != 10 || r[4].Int() != 40 {
		t.Fatalf("aggregates: %v", r)
	}
	// Aggregates over an empty match still yield one row.
	res = mustExec(t, s, `SELECT COUNT(*) FROM items WHERE qty > 1000`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 {
		t.Fatalf("empty aggregate: %v", res.Rows)
	}
	res = mustExec(t, s, `SELECT MIN(qty) FROM items WHERE qty > 1000`, nil)
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("MIN over empty should be null: %v", res.Rows[0][0])
	}
}

func TestGroupBy(t *testing.T) {
	s := store.New()
	mustExec(t, s, `CREATE TABLE obs (loc STRING, qty INT)`, nil)
	for _, sql := range []string{
		`INSERT INTO obs VALUES ('w1', 1)`,
		`INSERT INTO obs VALUES ('w1', 2)`,
		`INSERT INTO obs VALUES ('w2', 5)`,
	} {
		mustExec(t, s, sql, nil)
	}
	res := mustExec(t, s, `SELECT loc, COUNT(*), SUM(qty) FROM obs GROUP BY loc`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("groups: %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "w1" || res.Rows[0][1].Int() != 2 || res.Rows[0][2].Int() != 3 {
		t.Errorf("group w1: %v", res.Rows[0])
	}
	if res.Rows[1][0].Str() != "w2" || res.Rows[1][1].Int() != 1 || res.Rows[1][2].Int() != 5 {
		t.Errorf("group w2: %v", res.Rows[1])
	}
}

func TestParameters(t *testing.T) {
	s := newDB(t)
	params := event.MakeBindings(map[string]event.Value{
		"o": event.StringValue("zz"),
		"t": event.TimeValue(ts(7)),
		"n": event.IntValue(99),
	})
	mustExec(t, s, `INSERT INTO items VALUES (o, n, 0.5, t)`, params)
	res := mustExec(t, s, `SELECT qty FROM items WHERE epc = o`, params)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 99 {
		t.Fatalf("param roundtrip: %v", res.Rows)
	}
	// Unknown identifier that is neither column nor parameter errors.
	if _, err := Exec(s, `SELECT * FROM items WHERE epc = mystery`, nil); err == nil {
		t.Fatalf("unknown parameter accepted")
	}
}

func TestUpdateWithParamsAndUC(t *testing.T) {
	// Rule 3's location-change action.
	s := store.OpenRFID()
	params := event.MakeBindings(map[string]event.Value{"o": event.StringValue("obj1"), "t": event.TimeValue(ts(50))})
	mustExec(t, s, `INSERT INTO OBJECTLOCATION VALUES (o, 'loc1', 0, 'UC')`, params)
	res := mustExec(t, s, `UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC'`, params)
	if res.RowsAffected != 1 {
		t.Fatalf("update affected %d", res.RowsAffected)
	}
	mustExec(t, s, `INSERT INTO OBJECTLOCATION VALUES (o, 'loc2', t, 'UC')`, params)
	sel := mustExec(t, s, `SELECT loc_id FROM OBJECTLOCATION WHERE object_epc = o AND tend = 'UC'`, params)
	if len(sel.Rows) != 1 || sel.Rows[0][0].Str() != "loc2" {
		t.Fatalf("current location: %v", sel.Rows)
	}
}

func TestBulkInsertExpandsLists(t *testing.T) {
	// Rule 4's containment action: one row per contained item.
	s := store.OpenRFID()
	params := event.MakeBindings(map[string]event.Value{
		"o1": event.ListValue([]event.Value{
			event.StringValue("i1"), event.StringValue("i2"), event.StringValue("i3"),
		}),
		"o2": event.StringValue("case9"),
		"t2": event.TimeValue(ts(14)),
	})
	res := mustExec(t, s, `BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')`, params)
	if res.RowsAffected != 3 {
		t.Fatalf("bulk inserted %d rows, want 3", res.RowsAffected)
	}
	sel := mustExec(t, s, `SELECT object_epc FROM OBJECTCONTAINMENT WHERE parent_epc = 'case9'`, nil)
	if len(sel.Rows) != 3 || sel.Rows[0][0].Str() != "i1" || sel.Rows[2][0].Str() != "i3" {
		t.Fatalf("bulk rows: %v", sel.Rows)
	}
}

func TestBulkInsertWithoutListsInsertsOne(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `BULK INSERT INTO items VALUES ('solo', 1, 1.0, 1)`, nil)
	if res.RowsAffected != 1 {
		t.Fatalf("bulk without lists: %d", res.RowsAffected)
	}
}

func TestInsertWithColumnList(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `INSERT INTO items (qty, epc, price, at) VALUES (7, 'colmap', 0.1, 5)`, nil)
	res := mustExec(t, s, `SELECT qty FROM items WHERE epc = 'colmap'`, nil)
	if res.Rows[0][0].Int() != 7 {
		t.Fatalf("column mapping: %v", res.Rows)
	}
	if _, err := Exec(s, `INSERT INTO items (qty) VALUES (1, 2)`, nil); err == nil {
		t.Fatalf("mismatched column list accepted")
	}
}

func TestDelete(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `DELETE FROM items WHERE epc LIKE 'a%'`, nil)
	if res.RowsAffected != 2 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}
	left := mustExec(t, s, `SELECT COUNT(*) FROM items`, nil)
	if left.Rows[0][0].Int() != 2 {
		t.Fatalf("remaining: %v", left.Rows)
	}
}

func TestExistsSubquery(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT * FROM items WHERE EXISTS (SELECT * FROM items WHERE qty = 40)`, nil)
	if len(res.Rows) != 4 {
		t.Fatalf("EXISTS true: %d", len(res.Rows))
	}
	res = mustExec(t, s, `SELECT * FROM items WHERE NOT EXISTS (SELECT * FROM items WHERE qty = 41)`, nil)
	if len(res.Rows) != 4 {
		t.Fatalf("NOT EXISTS: %d", len(res.Rows))
	}
	res = mustExec(t, s, `SELECT * FROM items WHERE EXISTS (SELECT * FROM items WHERE qty = 41)`, nil)
	if len(res.Rows) != 0 {
		t.Fatalf("EXISTS false: %d", len(res.Rows))
	}
}

func TestScalarFunctions(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT UPPER(epc), LOWER('ABC'), LENGTH(epc), ABS(0 - qty), COALESCE(NULL, epc) FROM items WHERE epc = 'a1'`, nil)
	r := res.Rows[0]
	if r[0].Str() != "A1" || r[1].Str() != "abc" || r[2].Int() != 2 || r[3].Int() != 10 || r[4].Str() != "a1" {
		t.Fatalf("scalar functions: %v", r)
	}
}

func TestStringConcat(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT epc || '-x' FROM items WHERE epc = 'a1'`, nil)
	if res.Rows[0][0].Str() != "a1-x" {
		t.Fatalf("concat: %v", res.Rows[0][0])
	}
}

func TestIndexProbeMatchesScan(t *testing.T) {
	s := store.New()
	mustExec(t, s, `CREATE TABLE t (k STRING, v INT)`, nil)
	tbl, _ := s.Table("t")
	for i := 0; i < 200; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (k, v)`, event.MakeBindings(map[string]event.Value{
			"k": event.StringValue(strings.Repeat("x", i%5+1)),
			"v": event.IntValue(int64(i)),
		}))
	}
	scanRes := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE k = 'xxx' AND v % 2 = 0`, nil)
	if err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	idxRes := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE k = 'xxx' AND v % 2 = 0`, nil)
	if scanRes.Rows[0][0].Int() != idxRes.Rows[0][0].Int() {
		t.Fatalf("index probe disagrees with scan: %v vs %v", scanRes.Rows[0][0], idxRes.Rows[0][0])
	}
	if scanRes.Rows[0][0].Int() != 20 {
		t.Fatalf("count: %v", scanRes.Rows[0][0])
	}
}

func TestParseOneStatementEach(t *testing.T) {
	var stmts []Stmt
	for _, sql := range []string{`INSERT INTO a VALUES (1);`, `UPDATE a SET x = 2`, `DELETE FROM a`} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		stmts = append(stmts, st)
	}
	if _, ok := stmts[0].(*Insert); !ok {
		t.Errorf("stmt 0: %T", stmts[0])
	}
	if _, ok := stmts[1].(*Update); !ok {
		t.Errorf("stmt 1: %T", stmts[1])
	}
	if _, ok := stmts[2].(*Delete); !ok {
		t.Errorf("stmt 2: %T", stmts[2])
	}
	if _, err := Parse(`INSERT INTO a VALUES (1); UPDATE a SET x = 2`); err == nil {
		t.Errorf("Parse accepted a second statement")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELEC * FROM t`,
		`SELECT FROM t`,
		`SELECT * FORM t`,
		`INSERT INTO t VALUES`,
		`INSERT t VALUES (1)`,
		`UPDATE t x = 2`,
		`DELETE t`,
		`CREATE TABLE t (a BLOB)`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t LIMIT -1`,
		`SELECT * FROM t LIMIT x`,
		`SELECT * FROM t; garbage`,
		`INSERT INTO t VALUES (1,)`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestExecErrors(t *testing.T) {
	s := newDB(t)
	bad := []string{
		`SELECT * FROM missing`,
		`INSERT INTO items VALUES (1)`,
		`INSERT INTO items (nosuch) VALUES (1)`,
		`UPDATE items SET nosuch = 1`,
		`SELECT * FROM items WHERE qty / 0 = 1`,
		`SELECT nosuchfunc(qty) FROM items`,
		`SELECT * FROM items WHERE SUM(qty) = 1`,
		`SELECT * FROM items GROUP BY nosuch`,
		`SELECT SUM(epc) FROM items`,
	}
	for _, sql := range bad {
		if _, err := Exec(s, sql, nil); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "%%", true},
		{"abc", "a%c", true},
		{"abc", "a%d", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %t, want %t", c.s, c.p, got, c.want)
		}
	}
}

func TestDivisionAndModuloByZero(t *testing.T) {
	s := newDB(t)
	if _, err := Exec(s, `SELECT qty % 0 FROM items`, nil); err == nil {
		t.Errorf("modulo by zero accepted")
	}
	if _, err := Exec(s, `SELECT price / 0.0 FROM items`, nil); err == nil {
		t.Errorf("float division by zero accepted")
	}
}

func TestFloatArithmetic(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT price + 0.5 FROM items WHERE epc = 'a1'`, nil)
	if res.Rows[0][0].Float() != 2.0 {
		t.Fatalf("float add: %v", res.Rows[0][0])
	}
	res = mustExec(t, s, `SELECT price / 2 FROM items WHERE epc = 'a1'`, nil)
	if res.Rows[0][0].Float() != 0.75 {
		t.Fatalf("float div: %v", res.Rows[0][0])
	}
}
