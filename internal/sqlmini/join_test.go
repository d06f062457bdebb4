package sqlmini

import (
	"strings"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

// rfidDB builds a store with containment + location data for join tests.
func rfidDB(t *testing.T) *store.Store {
	t.Helper()
	s := store.OpenRFID()
	for _, sql := range []string{
		`INSERT INTO OBJECTCONTAINMENT VALUES ('i1', 'case1', 0, 'UC')`,
		`INSERT INTO OBJECTCONTAINMENT VALUES ('i2', 'case1', 0, 'UC')`,
		`INSERT INTO OBJECTCONTAINMENT VALUES ('i3', 'case2', 0, 'UC')`,
		`INSERT INTO OBJECTLOCATION VALUES ('case1', 'warehouse-1', 0, 'UC')`,
		`INSERT INTO OBJECTLOCATION VALUES ('case2', 'store-9', 0, 'UC')`,
	} {
		mustExec(t, s, sql, nil)
	}
	return s
}

func TestInnerJoin(t *testing.T) {
	s := rfidDB(t)
	// Where is every item, via its container's location?
	res := mustExec(t, s, `
SELECT c.object_epc, l.loc_id
FROM OBJECTCONTAINMENT c
JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc
ORDER BY c.object_epc`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows: %v", res.Rows)
	}
	want := map[string]string{"i1": "warehouse-1", "i2": "warehouse-1", "i3": "store-9"}
	for _, r := range res.Rows {
		if want[r[0].Str()] != r[1].Str() {
			t.Errorf("item %s at %s, want %s", r[0].Str(), r[1].Str(), want[r[0].Str()])
		}
	}
}

func TestInnerJoinKeywordForm(t *testing.T) {
	s := rfidDB(t)
	res := mustExec(t, s, `
SELECT COUNT(*) FROM OBJECTCONTAINMENT c
INNER JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc
WHERE l.loc_id = 'warehouse-1'`, nil)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("INNER JOIN + WHERE: %v", res.Rows)
	}
}

func TestJoinStarQualifiesColumns(t *testing.T) {
	s := rfidDB(t)
	res := mustExec(t, s, `
SELECT * FROM OBJECTCONTAINMENT c JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc`, nil)
	if len(res.Columns) != 8 {
		t.Fatalf("joined star columns: %v", res.Columns)
	}
	if res.Columns[0] != "c.object_epc" || res.Columns[4] != "l.object_epc" {
		t.Errorf("qualified columns: %v", res.Columns)
	}
}

func TestJoinAmbiguousColumn(t *testing.T) {
	s := rfidDB(t)
	// object_epc exists in both tables: unqualified use must error.
	_, err := Exec(s, `
SELECT object_epc FROM OBJECTCONTAINMENT c JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc`, nil)
	if err == nil {
		t.Fatalf("ambiguous column accepted")
	}
}

func TestJoinWithParams(t *testing.T) {
	s := rfidDB(t)
	params := event.MakeBindings(map[string]event.Value{"target": event.StringValue("i3")})
	res := mustExec(t, s, `
SELECT l.loc_id FROM OBJECTCONTAINMENT c
JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc
WHERE c.object_epc = target`, params)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "store-9" {
		t.Fatalf("join with params: %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	s := rfidDB(t)
	res := mustExec(t, s, `SELECT DISTINCT parent_epc FROM OBJECTCONTAINMENT ORDER BY parent_epc`, nil)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "case1" || res.Rows[1][0].Str() != "case2" {
		t.Fatalf("distinct: %v", res.Rows)
	}
}

func TestHaving(t *testing.T) {
	s := rfidDB(t)
	res := mustExec(t, s, `
SELECT parent_epc, COUNT(*) FROM OBJECTCONTAINMENT
GROUP BY parent_epc HAVING COUNT(*) > 1`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "case1" || res.Rows[0][1].Int() != 2 {
		t.Fatalf("having: %v", res.Rows)
	}
}

func TestGroupByQualified(t *testing.T) {
	s := rfidDB(t)
	res := mustExec(t, s, `
SELECT l.loc_id, COUNT(*) FROM OBJECTCONTAINMENT c
JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc
GROUP BY l.loc_id HAVING COUNT(*) >= 1`, nil)
	if len(res.Rows) != 2 {
		t.Fatalf("grouped join: %v", res.Rows)
	}
}

func TestOrderByOverAggregates(t *testing.T) {
	s := store.New()
	mustExec(t, s, `CREATE TABLE obs (loc STRING, qty INT)`, nil)
	for _, sql := range []string{
		`INSERT INTO obs VALUES ('w2', 5)`,
		`INSERT INTO obs VALUES ('w1', 1)`,
		`INSERT INTO obs VALUES ('w1', 2)`,
		`INSERT INTO obs VALUES ('w3', 9)`,
	} {
		mustExec(t, s, sql, nil)
	}
	res := mustExec(t, s, `SELECT loc, SUM(qty) AS total FROM obs GROUP BY loc ORDER BY total DESC`, nil)
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Rows[0][0].Str() != "w3" || res.Rows[2][0].Str() != "w1" {
		t.Errorf("order by aggregate alias: %v", res.Rows)
	}
	// Order by bare aggregate call name.
	res = mustExec(t, s, `SELECT loc, COUNT(*) FROM obs GROUP BY loc ORDER BY count DESC, loc`, nil)
	if res.Rows[0][0].Str() != "w1" {
		t.Errorf("order by count: %v", res.Rows)
	}
	// Order by 1-based position.
	res = mustExec(t, s, `SELECT loc, SUM(qty) FROM obs GROUP BY loc ORDER BY 2`, nil)
	if res.Rows[0][0].Str() != "w1" || res.Rows[2][0].Str() != "w3" {
		t.Errorf("order by position: %v", res.Rows)
	}
	if _, err := Exec(s, `SELECT loc, SUM(qty) FROM obs GROUP BY loc ORDER BY nosuch`, nil); err == nil {
		t.Errorf("unknown order key over aggregates accepted")
	}
}

func TestTableAlias(t *testing.T) {
	s := rfidDB(t)
	res := mustExec(t, s, `SELECT oc.object_epc FROM OBJECTCONTAINMENT AS oc WHERE oc.parent_epc = 'case2'`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "i3" {
		t.Fatalf("alias: %v", res.Rows)
	}
}

func TestSelfJoin(t *testing.T) {
	// Items sharing a container with i1, via a self join.
	s := rfidDB(t)
	res := mustExec(t, s, `
SELECT b.object_epc FROM OBJECTCONTAINMENT a
JOIN OBJECTCONTAINMENT b ON a.parent_epc = b.parent_epc
WHERE a.object_epc = 'i1' AND b.object_epc != 'i1'`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "i2" {
		t.Fatalf("self join: %v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	s := rfidDB(t)
	plan := func(sql string) []string {
		t.Helper()
		res := mustExec(t, s, sql, nil)
		var steps []string
		for _, r := range res.Rows {
			steps = append(steps, r[0].Str())
		}
		return steps
	}
	// SELECT, UPDATE and DELETE show the match planner's choice: a probe
	// on the indexed object_epc, a scan on loc_id, and a scan when the
	// value side names a column, even one a parameter shadows.
	shadow := event.MakeBindings(map[string]event.Value{"loc_id": event.StringValue("case1")})
	for _, tc := range []struct {
		sql    string
		params event.Bindings
		want   string
	}{
		{`EXPLAIN SELECT * FROM OBJECTLOCATION WHERE object_epc = 'case1'`, nil, "index probe OBJECTLOCATION.object_epc = case1"},
		{`EXPLAIN SELECT * FROM OBJECTLOCATION WHERE loc_id = 'x'`, nil, "full scan"},
		{`EXPLAIN SELECT * FROM OBJECTLOCATION WHERE object_epc = loc_id`, shadow, "full scan"},
		{`EXPLAIN UPDATE OBJECTLOCATION SET loc_id = 'x' WHERE object_epc = 'case1'`, nil, "index probe OBJECTLOCATION.object_epc = case1"},
		{`EXPLAIN UPDATE OBJECTLOCATION SET loc_id = 'x' WHERE loc_id = 'x'`, nil, "full scan"},
		{`EXPLAIN UPDATE OBJECTLOCATION SET tend = 5 WHERE object_epc = loc_id`, shadow, "full scan"},
		{`EXPLAIN DELETE FROM OBJECTLOCATION WHERE tend = 'UC' AND object_epc = 'case1'`, nil, "index probe OBJECTLOCATION.object_epc = case1"},
		{`EXPLAIN DELETE FROM OBJECTLOCATION WHERE loc_id = 'x'`, nil, "full scan"},
		{`EXPLAIN DELETE FROM OBJECTLOCATION WHERE loc_id = object_epc`, shadow, "full scan"},
	} {
		res := mustExec(t, s, tc.sql, tc.params)
		if len(res.Rows) == 0 || !strings.HasPrefix(res.Rows[0][0].Str(), tc.want) {
			t.Errorf("%s: plan %v, want %q first", tc.sql, res.Rows, tc.want)
		}
	}
	// Joins, grouping, ordering show up as steps.
	steps := plan(`EXPLAIN SELECT l.loc_id, COUNT(*) FROM OBJECTCONTAINMENT c
JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc
GROUP BY l.loc_id ORDER BY count LIMIT 3`)
	joined := strings.Join(steps, "\n")
	for _, frag := range []string{"nested-loop", "group by", "sort", "limit 3"} {
		if !strings.Contains(joined, frag) {
			t.Errorf("plan missing %q:\n%s", frag, joined)
		}
	}
	// Other statements explain too.
	if steps := plan(`EXPLAIN UPDATE OBJECTLOCATION SET loc_id = 'x' WHERE object_epc = 'case1'`); !strings.Contains(strings.Join(steps, " "), "update") {
		t.Errorf("update plan: %v", steps)
	}
	if steps := plan(`EXPLAIN BULK INSERT INTO OBJECTCONTAINMENT VALUES ('a','b',0,'UC')`); !strings.Contains(steps[0], "bulk insert") {
		t.Errorf("bulk plan: %v", steps)
	}
	// EXPLAIN does not execute: row counts unchanged.
	n1 := mustExec(t, s, `SELECT COUNT(*) FROM OBJECTCONTAINMENT`, nil).Rows[0][0].Int()
	mustExec(t, s, `EXPLAIN DELETE FROM OBJECTCONTAINMENT`, nil)
	n2 := mustExec(t, s, `SELECT COUNT(*) FROM OBJECTCONTAINMENT`, nil).Rows[0][0].Int()
	if n1 != n2 {
		t.Errorf("EXPLAIN executed the statement: %d -> %d", n1, n2)
	}
}

func TestInSubquery(t *testing.T) {
	s := rfidDB(t)
	// Items contained in cases that are currently at warehouse-1.
	res := mustExec(t, s, `
SELECT object_epc FROM OBJECTCONTAINMENT
WHERE parent_epc IN (SELECT object_epc FROM OBJECTLOCATION WHERE loc_id = 'warehouse-1')
ORDER BY object_epc`, nil)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "i1" || res.Rows[1][0].Str() != "i2" {
		t.Fatalf("IN subquery: %v", res.Rows)
	}
	res = mustExec(t, s, `
SELECT object_epc FROM OBJECTCONTAINMENT
WHERE parent_epc NOT IN (SELECT object_epc FROM OBJECTLOCATION WHERE loc_id = 'warehouse-1')`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "i3" {
		t.Fatalf("NOT IN subquery: %v", res.Rows)
	}
	// Subquery must project exactly one column.
	if _, err := Exec(s, `SELECT * FROM OBJECTCONTAINMENT WHERE parent_epc IN (SELECT * FROM OBJECTLOCATION)`, nil); err == nil {
		t.Errorf("multi-column IN subquery accepted")
	}
}

func TestJoinErrors(t *testing.T) {
	s := rfidDB(t)
	bad := []string{
		`SELECT * FROM OBJECTCONTAINMENT JOIN MISSING ON 1 = 1`,
		`SELECT * FROM OBJECTCONTAINMENT c JOIN OBJECTLOCATION l ON nosuch = 1`,
		`SELECT x.y FROM OBJECTCONTAINMENT c JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc`,
		`SELECT * FROM OBJECTCONTAINMENT c JOIN OBJECTLOCATION l ON c.parent_epc = l.object_epc GROUP BY loc_id`,
	}
	for _, sql := range bad {
		if _, err := Exec(s, sql, nil); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
	if _, err := Parse(`SELECT * FROM a JOIN b`); err == nil {
		t.Errorf("JOIN without ON accepted")
	}
}
