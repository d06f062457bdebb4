package sqlmini

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

// TestSelectNoAliasing: SELECT reads stored rows in place, so the rows a
// SELECT * returns must be copies. Changing a result row leaves the store
// alone, and an UPDATE after a SELECT leaves the earlier result alone.
func TestSelectNoAliasing(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		s := kvTable(t, indexed, [2]string{"a", "1"}, [2]string{"b", "2"})
		for _, sql := range []string{`SELECT * FROM t`, `SELECT * FROM t WHERE k = 'a'`} {
			res := mustExec(t, s, sql, nil)
			res.Rows[0][1] = event.StringValue("changed")
			if got := fmt.Sprint(mustExec(t, s, `SELECT k, j FROM t`, nil).Rows); got != "[[a 1] [b 2]]" {
				t.Errorf("indexed=%v: %s result write reached the store: %s", indexed, sql, got)
			}
		}
		star := mustExec(t, s, `SELECT * FROM t WHERE k = 'a'`, nil)
		proj := mustExec(t, s, `SELECT k, j FROM t ORDER BY j`, nil)
		mustExec(t, s, `UPDATE t SET j = 'z'`, nil)
		if got := fmt.Sprint(star.Rows, proj.Rows); got != "[[a 1]] [[a 1] [b 2]]" {
			t.Errorf("indexed=%v: UPDATE reached earlier results: %s", indexed, got)
		}
	}
}

// within fails the test if fn does not return within a generous bound: a
// deadlocked statement fails instead of hanging the suite.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not finish: deadlock", what)
	}
}

// TestSameTableSubqueryWrite: an UPDATE or DELETE whose WHERE holds a
// subquery on its own table runs the subquery before it locks the table.
func TestSameTableSubqueryWrite(t *testing.T) {
	for _, tc := range []struct {
		sql, query, want string
	}{
		{`UPDATE t SET b = 3 WHERE a IN (SELECT a FROM t)`, `SELECT a, b FROM t`, "[[1 3] [2 3] [200 3]]"},
		{`DELETE FROM t WHERE a IN (SELECT a FROM t WHERE b > 100)`, `SELECT a, b FROM t`, "[[1 10] [2 20]]"},
		{`UPDATE t SET f = a IN (SELECT a FROM t WHERE b > 100) WHERE EXISTS (SELECT * FROM t WHERE a = 2)`,
			`SELECT a, f FROM t`, "[[1 false] [2 false] [200 true]]"},
	} {
		s := store.New()
		mustExec(t, s, `CREATE TABLE t (a INT, b INT, f BOOL)`, nil)
		mustExec(t, s, `INSERT INTO t (a, b) VALUES (1, 10)`, nil)
		mustExec(t, s, `INSERT INTO t (a, b) VALUES (2, 20)`, nil)
		mustExec(t, s, `INSERT INTO t (a, b) VALUES (200, 2000)`, nil)
		within(t, tc.sql, func() { mustExec(t, s, tc.sql, nil) })
		if got := fmt.Sprint(mustExec(t, s, tc.query, nil).Rows); got != tc.want {
			t.Errorf("%s: rows %s, want %s", tc.sql, got, tc.want)
		}
	}
}

// TestSameTableSubqueryBesideWriter: a SELECT with a subquery on its own
// table takes the table's read lock once, so a writer queued between two
// read locks cannot deadlock it.
func TestSameTableSubqueryBesideWriter(t *testing.T) {
	s := store.New()
	mustExec(t, s, `CREATE TABLE t (a INT, b INT)`, nil)
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*10), nil)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = Exec(s, fmt.Sprintf(`UPDATE t SET b = %d WHERE a = 7`, i), nil)
		}
	}()
	within(t, "2000 SELECTs beside a writer", func() {
		for i := 0; i < 2000; i++ {
			res := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE a IN (SELECT a FROM t WHERE a < 10)`, nil)
			if n := res.Rows[0][0].Int(); n != 10 {
				t.Errorf("count %d, want 10", n)
				break
			}
		}
	})
	close(stop)
	wg.Wait()
}

// TestSubqueryErrorsStayLazy: a subquery runs once ahead of the rows, but
// its error is raised only where evaluation reaches it.
func TestSubqueryErrorsStayLazy(t *testing.T) {
	s := kvTable(t, false, [2]string{"a", "1"})
	bad := `(SELECT k, j FROM t)`
	if _, err := Exec(s, `SELECT k FROM t WHERE 1 = 0 AND k IN `+bad, nil); err != nil {
		t.Errorf("unreached subquery raised %v", err)
	}
	if _, err := Exec(s, `DELETE FROM t WHERE 1 = 0 AND k IN `+bad, nil); err != nil {
		t.Errorf("unreached subquery raised %v", err)
	}
	if _, err := Exec(s, `SELECT k FROM t WHERE k IN `+bad, nil); err == nil {
		t.Errorf("reached multi-column subquery accepted")
	}
	if _, err := Exec(s, `UPDATE t SET j = 'x' WHERE EXISTS (SELECT * FROM missing)`, nil); err == nil {
		t.Errorf("reached subquery on a missing table accepted")
	}
}

// TestUnindexedProbeErrorsLikeIndexed: `col = v` prefilters a scan as it
// probes an index, so a WHERE that fails only on rows outside the key
// fails on neither table.
func TestUnindexedProbeErrorsLikeIndexed(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		s := store.New()
		mustExec(t, s, `CREATE TABLE t (k STRING, v INT)`, nil)
		mustExec(t, s, `INSERT INTO t VALUES ('a', 1)`, nil)
		mustExec(t, s, `INSERT INTO t VALUES ('b', 0)`, nil)
		if indexed {
			tbl, _ := s.Table("t")
			_ = tbl.CreateIndex("k")
		}
		for _, sql := range []string{
			`SELECT * FROM t WHERE 1 / v = 1 AND k = 'a'`,
			`UPDATE t SET v = 2 WHERE 1 / v = 1 AND k = 'a'`,
			`DELETE FROM t WHERE 1 / v = 2 AND k = 'a'`,
		} {
			if _, err := Exec(s, sql, nil); err != nil {
				t.Errorf("indexed=%v: %s: %v", indexed, sql, err)
			}
		}
		if _, err := Exec(s, `SELECT * FROM t WHERE 1 / v = 1`, nil); err == nil {
			t.Errorf("indexed=%v: unprobed division by zero accepted", indexed)
		}
	}
}

// TestAllocBudgetGroupBy: an aggregated SELECT folds each row into its
// group as the store scan reads it, keeping no rows, so grouping allocates
// per group and per doubling of the group state, not per row. Grouping the
// 12k-row OBJECTLOCATION into its one group stays under a fixed budget;
// grouping it into 4,000 groups stays under a few allocations a group (the
// group's key, its result row, and a share of the doublings).
func TestAllocBudgetGroupBy(t *testing.T) {
	const objects = 4000
	s := locationTable(t, objects)
	for _, tc := range []struct {
		sql    string
		groups int
		count  int64
		budget float64
	}{
		{`SELECT loc_id, COUNT(*) FROM OBJECTLOCATION GROUP BY loc_id`, 1, 3 * objects, 32},
		{`SELECT object_epc, COUNT(*) FROM OBJECTLOCATION GROUP BY object_epc`, objects, 3, 4*objects + 32},
	} {
		sel := PrepareStmt(mustParse(t, tc.sql))
		allocs := testing.AllocsPerRun(10, func() {
			res, err := sel.Exec(s, nil)
			if err != nil || len(res.Rows) != tc.groups || res.Rows[0][1].Int() != tc.count {
				t.Fatalf("%s: %d groups, err %v", tc.sql, len(res.Rows), err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocs over 12k rows (budget %.0f)", tc.sql, allocs, tc.budget)
		}
	}
}

// TestAllocBudgetInsert: an INSERT builds its row once and the table keeps
// it. A prepared INSERT of a new object into OBJECTLOCATION allocates the
// row and the Result; the object's index entry is a slot in the index map
// and a next position, which allocate nothing of their own. The growth of
// the row slices, the next positions and the index map amortizes to less
// than one more.
func TestAllocBudgetInsert(t *testing.T) {
	const (
		objects = 4000
		runs    = 200
		budget  = 3
	)
	s := locationTable(t, objects)
	ins := PrepareStmt(mustParse(t, `INSERT INTO OBJECTLOCATION VALUES (o, 'loc', t, 'UC')`))
	params := make([]event.Bindings, runs+1)
	for i := range params {
		params[i] = event.MakeBindings(map[string]event.Value{"o": locObject(objects + i), "t": event.TimeValue(9)})
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := ins.Exec(s, params[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > budget {
		t.Errorf("allocs per INSERT: %.1f (budget %d)", allocs, budget)
	}
}
