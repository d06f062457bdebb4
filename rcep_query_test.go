package rcep

import (
	"fmt"
	"testing"
)

// queryEngine returns an engine whose store holds the virtual world of a
// small tracking deployment: 600 objects, each moved through three of 60
// locations (its last stay open), packed ten to a case, the cases moved
// like the objects.
func queryEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := New(Config{Rules: `
CREATE RULE r3, location change rule
ON observation(r, o, t)
IF true
DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC';
   INSERT INTO OBJECTLOCATION VALUES (o, r, t, 'UC')
`})
	if err != nil {
		t.Fatal(err)
	}
	exec := func(format string, args ...any) {
		t.Helper()
		if _, err := eng.Exec(fmt.Sprintf(format, args...)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		for hop := 0; hop < 3; hop++ {
			end := fmt.Sprint((hop + 1) * 1000000000)
			if hop == 2 {
				end = "'UC'"
			}
			exec("INSERT INTO OBJECTLOCATION VALUES ('obj-%d', 'loc-%d', %d, %s)", i, (i+hop*7)%60, hop*1000000000, end)
		}
		if i%10 == 0 {
			exec("INSERT INTO OBJECTLOCATION VALUES ('case-%d', 'loc-%d', 0, 'UC')", i/10, i%60)
		}
		exec("INSERT INTO OBJECTCONTAINMENT VALUES ('obj-%d', 'case-%d', 0, 'UC')", i, i/10)
	}
	return eng
}

// TestAllocBudgetQuery pins what the read path allocates through the
// facade. A query allocates its parse tree, its relation (whose first four
// rows need no list of their own, and whose row list doubles from there)
// and its result: the row lists and one backing array each of values and
// of cells, plus a box for each string cell and each number of 256 or
// more. Tokens are scanned into a pooled buffer, and nothing is allocated
// per token, per column of the relation or per result row; a GROUP BY
// allocates per group only the box of its string key. The budgets of the
// GROUP BY and the trace, which fill maps, leave a few allocations for the
// map implementation of the Go release. Before results were carved from
// one array, and tokens cut from the source, the four measured 58, 67, 316
// and 17; before tokens were pooled and the item and row lists sized, the
// first three measured 27, 28 and 101.
func TestAllocBudgetQuery(t *testing.T) {
	eng := queryEngine(t)
	for _, tc := range []struct {
		name   string
		run    func() (int, error)
		rows   int
		budget float64
	}{
		{"probe", func() (int, error) {
			_, rows, err := eng.Query(`SELECT loc_id, tstart, tend FROM OBJECTLOCATION WHERE object_epc = 'obj-42'`)
			return len(rows), err
		}, 3, 21},
		{"scan", func() (int, error) {
			_, rows, err := eng.Query(`SELECT object_epc FROM OBJECTCONTAINMENT WHERE parent_epc = 'case-7'`)
			return len(rows), err
		}, 10, 24},
		{"group", func() (int, error) {
			_, rows, err := eng.Query(`SELECT loc_id, COUNT(*) AS n FROM OBJECTLOCATION GROUP BY loc_id`)
			return len(rows), err
		}, 60, 103},
		{"trace", func() (int, error) {
			stays, err := eng.Trace("obj-42")
			return len(stays), err
		}, 3, 10},
	} {
		if n, err := tc.run(); err != nil || n != tc.rows {
			t.Fatalf("%s: %d rows, err %v; want %d", tc.name, n, err, tc.rows)
		}
		allocs := testing.AllocsPerRun(20, func() { tc.run() })
		if allocs > tc.budget {
			t.Errorf("%s: %.1f allocs (budget %.0f)", tc.name, allocs, tc.budget)
		}
	}
}

// TestQueryRowsDoNotShareCapacity: Query's rows share one backing array,
// so each must end at its own cap: appending to one row must relocate it,
// not write into the next.
func TestQueryRowsDoNotShareCapacity(t *testing.T) {
	eng := queryEngine(t)
	_, rows, err := eng.Query(`SELECT object_epc, parent_epc FROM OBJECTCONTAINMENT WHERE parent_epc = 'case-3'`)
	if err != nil || len(rows) < 2 {
		t.Fatalf("%d rows, err %v", len(rows), err)
	}
	next := fmt.Sprint(rows[1])
	rows[0] = append(rows[0], "appended")
	if got := fmt.Sprint(rows[1]); got != next || len(rows[0]) != 3 {
		t.Fatalf("append to rows[0] changed rows[1]: %s, was %s", got, next)
	}
}
