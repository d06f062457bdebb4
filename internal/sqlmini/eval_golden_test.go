package sqlmini

import (
	"fmt"
	"strings"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

// goldenStore holds items(k, n) = (a,0) (b,1) (c,2) and owners(k, who) =
// (a,ann) (b,bob) (b,bea) (d,dan), so joins match, repeat and miss.
func goldenStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	for _, sql := range []string{
		`CREATE TABLE items (k STRING, n INT)`,
		`INSERT INTO items VALUES ('a', 0)`,
		`INSERT INTO items VALUES ('b', 1)`,
		`INSERT INTO items VALUES ('c', 2)`,
		`CREATE TABLE owners (k STRING, who STRING)`,
		`INSERT INTO owners VALUES ('a', 'ann')`,
		`INSERT INTO owners VALUES ('b', 'bob')`,
		`INSERT INTO owners VALUES ('b', 'bea')`,
		`INSERT INTO owners VALUES ('d', 'dan')`,
	} {
		mustExec(t, s, sql, nil)
	}
	return s
}

// renderValues writes values as "kind value" pairs.
func renderValues(sb *strings.Builder, vals []event.Value) {
	for i, v := range vals {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%s %s", v.Kind(), v)
	}
}

// renderGolden runs src on s and renders the outcome: a statement
// (anything Parse accepts) through ExecStmt, its result and, unless it is
// a SELECT, the items table afterwards; anything else as an expression
// through EvalExpr with the user function twice.
func renderGolden(t *testing.T, s *store.Store, src string, params event.Bindings) string {
	t.Helper()
	var sb strings.Builder
	if st, err := Parse(src); err == nil {
		res, err := ExecStmt(s, st, params)
		if err != nil {
			sb.WriteString("error: " + err.Error())
		} else {
			fmt.Fprintf(&sb, "affected %d %v", res.RowsAffected, res.Columns)
			for _, row := range res.Rows {
				sb.WriteString(" (")
				renderValues(&sb, row)
				sb.WriteString(")")
			}
		}
		if _, isSelect := st.(*Select); !isSelect {
			sb.WriteString(" | items:")
			res := mustExec(t, s, `SELECT * FROM items`, nil)
			for _, row := range res.Rows {
				sb.WriteString(" (")
				renderValues(&sb, row)
				sb.WriteString(")")
			}
		}
		return sb.String()
	}
	x := mustParseExpr(t, src)
	funcs := Funcs{"twice": func(args []event.Value) (event.Value, error) {
		if len(args) != 1 {
			return event.Null, fmt.Errorf("twice wants 1 arg")
		}
		return event.IntValue(args[0].Int() * 2), nil
	}}
	v, err := EvalExpr(s, x, params, funcs)
	if err != nil {
		return "error: " + err.Error()
	}
	renderValues(&sb, []event.Value{v})
	return sb.String()
}

// TestEvaluatorGolden pins the evaluator's values, kinds, error texts and
// store effects: every expression node and scalar function, INSERT in all
// its shapes, and the SELECT contexts that resolve names against a joined
// relation (qualified refs, aliases, ambiguity, the parameter fallback)
// or fold aggregates over groups (projection, HAVING, ORDER BY).
func TestEvaluatorGolden(t *testing.T) {
	params := event.Bindings{}.
		Set("o", event.StringValue("b")).
		Set("x", event.IntValue(3)).
		Set("f", event.FloatValue(1.5)).
		Set("l", event.ListValue([]event.Value{event.StringValue("l1"), event.StringValue("l2")}))
	cases := []struct{ src, want string }{
		{`1`, `int 1`},
		{`'s'`, `string s`},
		{`x`, `int 3`},
		{`o`, `string b`},
		{`f`, `float 1.5`},
		{`l`, `list [l1, l2]`},
		{`no_such_var`, `error: sqlmini: unknown column or parameter "no_such_var"`},
		{`NOT x`, `bool false`},
		{`-x`, `int -3`},
		{`-f`, `float -1.5`},
		{`-o`, `error: sqlmini: cannot negate string`},
		{`x = 3 AND o = 'b'`, `bool true`},
		{`x > 9 OR o != 'b'`, `bool false`},
		{`x < 2 AND no_such_var = 1`, `bool false`},
		{`x > 2 OR no_such_var = 1`, `bool true`},
		{`x + f`, `float 4.5`},
		{`x - 1`, `int 2`},
		{`x * 2`, `int 6`},
		{`x / 0`, `error: sqlmini: division by zero`},
		{`x % 2`, `int 1`},
		{`f % 2`, `error: sqlmini: % needs integers`},
		{`o || '!'`, `string b!`},
		{`x + o`, `error: sqlmini: + needs numeric operands, got int and string`},
		{`x >= 3`, `bool true`},
		{`x <= 2`, `bool false`},
		{`o < 'c'`, `bool true`},
		{`x = '3'`, `bool true`},
		{`o < 1`, `bool false`},
		{`no_such_var IS NULL`, `error: sqlmini: unknown column or parameter "no_such_var"`},
		{`upper(o)`, `string B`},
		{`lower('ABC')`, `string abc`},
		{`length(o)`, `int 1`},
		{`abs(-x)`, `int 3`},
		{`abs(o)`, `error: sqlmini: abs needs a number`},
		{`coalesce(no_such, 7)`, `error: sqlmini: unknown column or parameter "no_such"`},
		{`upper(o, o)`, `error: sqlmini: upper needs 1 argument(s), got 2`},
		{`twice(x)`, `int 6`},
		{`twice(x, x)`, `error: twice wants 1 arg`},
		{`unknownfn(x)`, `error: sqlmini: unknown function unknownfn`},
		{`count(x)`, `int 1`},
		{`SUM(l)`, `error: sqlmini: SUM over non-numeric value l1`},
		{`COUNT(*)`, `error: sqlmini: COUNT(*) is only valid in a SELECT projection`},
		{`o IN ('a', 'b')`, `bool true`},
		{`o NOT IN ('a')`, `bool true`},
		{`x IN (1, 2)`, `bool false`},
		{`o IN (SELECT k FROM items)`, `bool true`},
		{`x IN (SELECT n FROM items WHERE k = 'z')`, `bool false`},
		{`x IN (SELECT * FROM items)`, `error: sqlmini: IN subquery must select exactly one column, got 2`},
		{`EXISTS (SELECT * FROM items WHERE n > 1)`, `bool true`},
		{`NOT EXISTS (SELECT * FROM missing)`, `error: store: no such table missing`},
		{`x IS NOT NULL`, `bool true`},
		{`o LIKE 'b%'`, `bool true`},
		{`o NOT LIKE '_'`, `bool false`},
		{`o LIKE x`, `bool false`},
		{`INSERT INTO items VALUES ('d', 9)`, `affected 1 [] | items: (string a, int 0) (string b, int 1) (string c, int 2) (string d, int 9)`},
		{`INSERT INTO items (n, k) VALUES (x + 1, upper(o))`, `affected 1 [] | items: (string a, int 0) (string b, int 1) (string c, int 2) (string B, int 4)`},
		{`INSERT INTO items (k) VALUES (o)`, `affected 1 [] | items: (string a, int 0) (string b, int 1) (string c, int 2) (string b, null null)`},
		{`INSERT INTO items VALUES ('too', 1, 2)`, `error: sqlmini: items has 2 columns but 3 values given | items: (string a, int 0) (string b, int 1) (string c, int 2)`},
		{`INSERT INTO items (k, n) VALUES ('too')`, `error: sqlmini: 2 columns but 1 values | items: (string a, int 0) (string b, int 1) (string c, int 2)`},
		{`INSERT INTO missing VALUES (1)`, `error: store: no such table missing | items: (string a, int 0) (string b, int 1) (string c, int 2)`},
		{`INSERT INTO items (nope) VALUES (1)`, `error: sqlmini: items: no such column nope | items: (string a, int 0) (string b, int 1) (string c, int 2)`},
		{`INSERT INTO items VALUES (o, no_such_var)`, `error: sqlmini: unknown column or parameter "no_such_var" | items: (string a, int 0) (string b, int 1) (string c, int 2)`},
		{`INSERT INTO items VALUES (o, SUM(l))`, `error: sqlmini: SUM over non-numeric value l1 | items: (string a, int 0) (string b, int 1) (string c, int 2)`},
		{`BULK INSERT INTO items VALUES (l, x)`, `affected 2 [] | items: (string a, int 0) (string b, int 1) (string c, int 2) (string l1, int 3) (string l2, int 3)`},
		{`UPDATE items SET n = n + 10 WHERE k = 'a'`, `affected 1 [] | items: (string a, int 10) (string b, int 1) (string c, int 2)`},
		{`UPDATE items SET n = -n WHERE k != o`, `affected 2 [] | items: (string a, int 0) (string b, int 1) (string c, int -2)`},
		{`UPDATE items SET n = COUNT(n)`, `error: sqlmini: aggregate COUNT outside SELECT projection | items: (string a, int 0) (string b, int 1) (string c, int 2)`},
		{`DELETE FROM items WHERE n > 100`, `affected 0 [] | items: (string a, int 0) (string b, int 1) (string c, int 2)`},
		{`DELETE FROM items WHERE k LIKE o`, `affected 1 [] | items: (string a, int 0) (string c, int 2)`},
		{`SELECT k, n * x AS scaled FROM items ORDER BY scaled DESC`, `error: sqlmini: unknown column or parameter "scaled"`},
		{`SELECT -n, k FROM items ORDER BY -n`, `affected 0 [col1 k] (int -2, string c) (int -1, string b) (int 0, string a)`},
		{`SELECT k FROM items WHERE k IN (SELECT k FROM owners) ORDER BY k DESC`, `affected 0 [k] (string b) (string a)`},
		{`SELECT k || o FROM items WHERE n >= 1`, `affected 0 [col1] (string bb) (string cb)`},
		{`SELECT twice(n) FROM items`, `error: sqlmini: unknown function twice`},
		{`SELECT nope FROM items`, `error: sqlmini: unknown column or parameter "nope"`},
		{`SELECT k FROM items ORDER BY nope`, `error: sqlmini: unknown column or parameter "nope"`},
		{`SELECT DISTINCT k FROM owners`, `affected 0 [k] (string a) (string b) (string d)`},
		{`SELECT k FROM items LIMIT 2`, `affected 0 [k] (string a) (string b)`},
		{`SELECT i.k, w.who FROM items i JOIN owners w ON i.k = w.k ORDER BY w.who`, `affected 0 [i.k w.who] (string a, string ann) (string b, string bea) (string b, string bob)`},
		{`SELECT i.n AS num FROM items i WHERE i.k != 'a' ORDER BY i.n DESC`, `affected 0 [num] (int 2) (int 1)`},
		{`SELECT k FROM items AS i WHERE i.n = 1`, `affected 0 [k] (string b)`},
		{`SELECT items.k FROM items i`, `error: sqlmini: no column items.k`},
		{`SELECT k FROM items i JOIN owners w ON i.k = w.k`, `error: sqlmini: column k is ambiguous (qualify it)`},
		{`SELECT i.k, o FROM items i JOIN owners w ON i.k = w.k WHERE w.k = o`, `affected 0 [i.k o] (string b, string b) (string b, string b)`},
		{`SELECT w.who FROM items i JOIN owners w ON i.k = w.k AND w.who != 'bea' WHERE i.n < x`, `affected 0 [w.who] (string ann) (string bob)`},
		{`SELECT nope FROM items i JOIN owners w ON i.k = w.k`, `error: sqlmini: unknown column or parameter "nope"`},
		{`SELECT i.k FROM items i WHERE i.k IN (SELECT k FROM owners)`, `affected 0 [i.k] (string a) (string b)`},
		{`SELECT w.who FROM owners w WHERE w.who LIKE 'b%' ORDER BY w.who`, `affected 0 [w.who] (string bea) (string bob)`},
		{`SELECT -i.n FROM items i ORDER BY -i.n`, `affected 0 [col1] (int -2) (int -1) (int 0)`},
		{`SELECT upper(w.who), i.k || '/' || w.who FROM owners w JOIN items i ON i.k = w.k WHERE i.n >= 1`, `affected 0 [upper col2] (string BOB, string b/bob) (string BEA, string b/bea)`},
		{`SELECT * FROM items i JOIN owners w ON i.k = w.k WHERE w.who NOT LIKE 'b_b'`, `affected 0 [i.k i.n w.k w.who] (string a, int 0, string a, string ann) (string b, int 1, string b, string bea)`},
		{`SELECT i.k FROM items i JOIN owners w ON i.k = w.k ORDER BY w.who DESC, i.k`, `affected 0 [i.k] (string b) (string b) (string a)`},
		{`SELECT DISTINCT i.k FROM items i JOIN owners w ON i.k = w.k`, `affected 0 [i.k] (string a) (string b)`},
		{`SELECT i.k FROM items i JOIN owners w ON i.k = w.k AND i.n IS NULL`, `affected 0 [i.k]`},
		{`SELECT i.k FROM items i JOIN owners w ON i.k = w.nope`, `error: sqlmini: no column w.nope`},
		{`SELECT COUNT(*), SUM(n), AVG(n), MIN(k), MAX(n) FROM items`, `affected 0 [count sum avg min max] (int 3, int 3, float 1, string a, int 2)`},
		{`SELECT k, COUNT(*) FROM items WHERE n > 9`, `affected 0 [k count] (null null, int 0)`},
		{`SELECT w.k, COUNT(*) AS c FROM owners w GROUP BY w.k HAVING COUNT(*) > 1`, `affected 0 [w.k c] (string b, int 2)`},
		{`SELECT k, SUM(n) FROM items GROUP BY k HAVING SUM(n) >= x - 2`, `affected 0 [k sum] (string b, int 1) (string c, int 2)`},
		{`SELECT k, MAX(n) + 1 FROM items GROUP BY k ORDER BY 2 DESC`, `affected 0 [k col2] (string c, int 3) (string b, int 2) (string a, int 1)`},
		{`SELECT k, -MIN(n) FROM items GROUP BY k ORDER BY k DESC`, `affected 0 [k col2] (string c, int -2) (string b, int -1) (string a, int 0)`},
		{`SELECT i.k, COUNT(w.who) FROM items i JOIN owners w ON i.k = w.k GROUP BY i.k ORDER BY i.k`, `affected 0 [i.k count] (string a, int 1) (string b, int 2)`},
		{`SELECT k, COUNT(*) FROM items GROUP BY k ORDER BY n`, `error: sqlmini: ORDER BY over aggregates must name a projected column`},
		{`SELECT COUNT(*) FROM items HAVING COUNT(*) > 5`, `affected 0 [count]`},
		{`SELECT SUM(k) FROM items`, `error: sqlmini: SUM over non-numeric value a`},
		{`SELECT COUNT(n, k) FROM items`, `error: sqlmini: COUNT needs exactly one argument`},
		{`SELECT SUM(SUM(n)) FROM items`, `error: sqlmini: aggregate SUM outside SELECT projection`},
		{`SELECT k, COUNT(*) FROM items GROUP BY nope`, `error: sqlmini: GROUP BY: sqlmini: no such column`},
		{`SELECT * FROM items GROUP BY k`, `error: sqlmini: SELECT * with GROUP BY/HAVING is not supported`},
		{`SELECT k FROM items GROUP BY k HAVING k = o`, `affected 0 [k] (string b)`},
		{`SELECT COUNT(*) + x FROM items`, `affected 0 [col1] (int 6)`},
		{`SELECT MIN(*) FROM items`, `error: sqlmini: MIN(*) is not valid`},
		{`SELECT AVG(n) FROM items WHERE n > 9`, `affected 0 [avg] (null null)`},
		{`SELECT MAX(k), MIN(n * 1.5) FROM items`, `affected 0 [max min] (string c, float 0)`},
	}
	for _, c := range cases {
		if got := renderGolden(t, goldenStore(t), c.src, params); got != c.want {
			t.Errorf("%q:\n got %q\nwant %q\n{%#q, %#q},", c.src, got, c.want, c.src, got)
		}
	}
}

// TestGroupContextFoldsNestedAggregates: an aggregate call folds over the
// group wherever it sits in a projection or HAVING, under a scalar
// function, IS NULL, LIKE or IN, not only at the top of the expression.
func TestGroupContextFoldsNestedAggregates(t *testing.T) {
	s := store.New()
	for _, sql := range []string{
		`CREATE TABLE t (k STRING, n INT)`,
		`INSERT INTO t VALUES ('na', -3)`,
		`INSERT INTO t VALUES ('na', 1)`,
		`INSERT INTO t VALUES ('nb', -4)`,
		`INSERT INTO t VALUES ('m', 2)`,
		`INSERT INTO t VALUES ('m', 0)`,
		`INSERT INTO t VALUES ('m', 1)`,
	} {
		mustExec(t, s, sql, nil)
	}
	for _, c := range []struct{ src, want string }{
		{`SELECT abs(SUM(n)) FROM t`, `affected 0 [abs] (int 3)`},
		{`SELECT SUM(n) IS NULL, AVG(n) IS NULL FROM t WHERE n > 100`, `affected 0 [col1 col2] (bool false, bool true)`},
		{`SELECT MAX(k) LIKE 'n%' FROM t`, `affected 0 [col1] (bool true)`},
		{`SELECT k FROM t GROUP BY k HAVING COUNT(*) IN (1, 2)`, `affected 0 [k] (string na) (string nb)`},
		{`SELECT k, upper(MIN(k)) || length(k) FROM t GROUP BY k ORDER BY k`, `affected 0 [k col2] (string m, string M1) (string na, string NA2) (string nb, string NB2)`},
		{`SELECT k FROM t GROUP BY k HAVING coalesce(MAX(n), 0) > 0 AND COUNT(*) NOT IN (3)`, `affected 0 [k] (string na)`},
	} {
		if got := renderGolden(t, s, c.src, nil); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.src, got, c.want)
		}
	}
}

// TestGroupAndDistinctKeepKindsApart: GROUP BY and DISTINCT key rows by
// kind and value, so NULL, ” and 'null' are three keys, and so are the
// int 1 and the string '1'.
func TestGroupAndDistinctKeepKindsApart(t *testing.T) {
	s := store.New()
	for _, sql := range []string{
		`CREATE TABLE keys (k STRING, n INT)`,
		`INSERT INTO keys VALUES ('null', 1)`,
		`INSERT INTO keys VALUES (NULL, 2)`,
		`INSERT INTO keys VALUES ('', 3)`,
		`INSERT INTO keys VALUES ('null', 4)`,
		`INSERT INTO keys VALUES (NULL, 5)`,
		`INSERT INTO keys VALUES ('1', 6)`,
	} {
		mustExec(t, s, sql, nil)
	}
	for _, c := range []struct{ src, want string }{
		{`SELECT k, COUNT(*) FROM keys GROUP BY k`, `affected 0 [k count] (string null, int 2) (null null, int 2) (string , int 1) (string 1, int 1)`},
		{`SELECT DISTINCT k FROM keys`, `affected 0 [k] (string null) (null null) (string ) (string 1)`},
		{`SELECT DISTINCT coalesce(k, 1) FROM keys`, `affected 0 [coalesce] (string null) (int 1) (string ) (string 1)`},
	} {
		if got := renderGolden(t, s, c.src, nil); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.src, got, c.want)
		}
	}
}
