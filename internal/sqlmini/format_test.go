package sqlmini

import (
	"fmt"
	"reflect"
	"testing"
)

// TestFormatStmtRoundTrip: parse → format → parse is a fixed point for
// every statement shape.
func TestFormatStmtRoundTrip(t *testing.T) {
	stmts := []string{
		`CREATE TABLE t (a STRING, b INT, c FLOAT, d BOOL, e TIME)`,
		`INSERT INTO t VALUES ('x', 1, 2.5, true, 7)`,
		`INSERT INTO t (a, b) VALUES (o, n + 1)`,
		`BULK INSERT INTO t VALUES (o1, o2, t2, 'UC')`,
		`UPDATE t SET a = 'y', b = b + 1 WHERE a = o AND b != 3`,
		`DELETE FROM t WHERE a LIKE 'x%' OR b IN (1, 2, 3)`,
		`DELETE FROM t WHERE a NOT IN (SELECT a FROM t WHERE b IS NOT NULL)`,
		`SELECT DISTINCT a, COUNT(*) AS n FROM t AS x JOIN u AS y ON x.a = y.k WHERE NOT EXISTS (SELECT * FROM t WHERE b = 9) GROUP BY a HAVING COUNT(*) > 1 ORDER BY n DESC, a LIMIT 5`,
		`SELECT * FROM t WHERE a IS NULL AND -b < 0`,
		`EXPLAIN SELECT * FROM t WHERE a = 'v'`,
	}
	for _, src := range stmts {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		formatted := FormatStmt(s1)
		s2, err := Parse(formatted)
		if err != nil {
			t.Fatalf("formatted does not parse: %v\nsrc: %s\nout: %s", err, src, formatted)
		}
		again := FormatStmt(s2)
		if formatted != again {
			t.Errorf("not a fixed point:\n1: %s\n2: %s", formatted, again)
		}
		if reflect.TypeOf(s1) != reflect.TypeOf(s2) {
			t.Errorf("statement type drift: %T vs %T", s1, s2)
		}
	}
}

// TestParsedStatementOutlivesItsTokens: a parse scans into a pooled token
// buffer and returns it, so the next parse overwrites those tokens. A
// statement parsed earlier must not change: its tree keeps strings cut
// from its own source, never a token.
func TestParsedStatementOutlivesItsTokens(t *testing.T) {
	const a = `SELECT loc_id AS l, tend FROM OBJECTLOCATION WHERE ((object_epc = 'it''s') AND (tstart > 5)) ORDER BY tend DESC LIMIT 3`
	stA := mustParse(t, a)
	if got := FormatStmt(stA); got != a {
		t.Fatalf("A formats to %s", got)
	}
	for i := range 4 { // B reuses A's buffer, and overwrites every token A had
		mustParse(t, fmt.Sprintf(`UPDATE OBJECTCONTAINMENT SET tend = %d, parent_epc = 'case-1' WHERE (object_epc = 'o') AND (tend = 'UC') AND (n IN (1, 2, 3))`, i))
	}
	if got := FormatStmt(stA); got != a {
		t.Errorf("after B, A formats to %s", got)
	}
}
