package sqlmini

import (
	"fmt"
	"strings"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

func prepStore(t *testing.T) *store.Store {
	t.Helper()
	s := store.New()
	if err := s.CreateTable("items", store.Schema{
		{Name: "k", Type: event.KindString},
		{Name: "n", Type: event.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "c"} {
		if err := tbl.Insert([]event.Value{event.StringValue(k), event.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestPrepareExprEquivalence holds each expression parsed once, as the
// rule executor holds a rule's condition, and evaluates it again and
// again under changing bindings and a changing store. Every evaluation
// must agree with a fresh parse of the same text on value, kind and error
// string, so evaluation leaves nothing behind in the held tree.
func TestPrepareExprEquivalence(t *testing.T) {
	funcs := Funcs{"twice": func(args []event.Value) (event.Value, error) {
		if len(args) != 1 {
			return event.Null, fmt.Errorf("twice wants 1 arg")
		}
		return event.IntValue(args[0].Int() * 2), nil
	}}
	bindings := []event.Bindings{
		event.Bindings{}.
			Set("o", event.StringValue("b")).
			Set("x", event.IntValue(3)).
			Set("f", event.FloatValue(1.5)),
		event.Bindings{}.
			Set("o", event.StringValue("z")).
			Set("x", event.IntValue(0)).
			Set("f", event.FloatValue(-2)),
		event.Bindings{}.
			Set("o", event.StringValue("b")).
			Set("x", event.IntValue(3)).
			Set("f", event.FloatValue(1.5)),
	}
	exprs := []string{
		`1`, `'s'`, `x`, `o`, `no_such_var`,
		`NOT x`, `-x`, `-f`, `-o`,
		`x = 3 AND o = 'b'`, `x > 9 OR o != 'b'`, `x < 2 AND no_such_var = 1`,
		`x + f`, `x - 1`, `x * 2`, `x / 0`, `x % 2`, `o || '!'`,
		`x >= 3`, `x <= 2`, `o < 'c'`,
		`upper(o)`, `lower('ABC')`, `length(o)`, `abs(-x)`, `coalesce(no_such, 7)`,
		`twice(x)`, `twice(x, x)`, `unknownfn(x)`, `count(x)`,
		`o IN ('a', 'b')`, `o NOT IN ('a')`, `x IN (1, 2)`,
		`o IN (SELECT k FROM items)`, `x IN (SELECT n FROM items WHERE k = 'z')`,
		`EXISTS (SELECT * FROM items WHERE n > 1)`, `NOT EXISTS (SELECT * FROM missing)`,
		`no_such_var IS NULL`, `x IS NOT NULL`,
		`o LIKE 'b%'`, `o NOT LIKE '_'`, `o LIKE x`,
	}
	for _, src := range exprs {
		held, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", src, err)
		}
		st := prepStore(t)
		for i, params := range bindings {
			if i == 2 {
				mustExec(t, st, `INSERT INTO items VALUES ('z', 0)`, nil)
			}
			fresh, err := ParseExpr(src)
			if err != nil {
				t.Fatalf("ParseExpr(%q): %v", src, err)
			}
			gv, ge := EvalExpr(st, held, params, funcs)
			wv, we := EvalExpr(st, fresh, params, funcs)
			switch {
			case (ge == nil) != (we == nil):
				t.Errorf("%q #%d: held err %v, fresh err %v", src, i, ge, we)
			case ge != nil:
				if ge.Error() != we.Error() {
					t.Errorf("%q #%d: held err %q, fresh err %q", src, i, ge, we)
				}
			case gv.Kind() != wv.Kind() || !gv.Equal(wv):
				t.Errorf("%q #%d: held %v (%v), fresh %v (%v)", src, i, gv, gv.Kind(), wv, wv.Kind())
			}
		}
	}
}

// TestPrepareStmtEquivalence requires a PreparedStmt to have the effects
// of ExecStmt on the same statement (explicit columns, schema order, BULK
// over list bindings, error shapes, UPDATE and DELETE), comparing results
// and twin stores.
func TestPrepareStmtEquivalence(t *testing.T) {
	stmts := []string{
		`INSERT INTO items VALUES ('d', 9)`,
		`INSERT INTO items (n, k) VALUES (x + 1, upper(o))`,
		`INSERT INTO items (k) VALUES (o)`,
		`INSERT INTO items VALUES ('too', 1, 2)`,
		`INSERT INTO missing VALUES (1)`,
		`INSERT INTO items (nope) VALUES (1)`,
		`BULK INSERT INTO items VALUES (o, x)`,
		`UPDATE items SET n = n + 10 WHERE k = 'a'`,
		`DELETE FROM items WHERE n > 100`,
	}
	params := event.Bindings{}.
		Set("o", event.StringValue("z")).
		Set("x", event.IntValue(40))
	bulkParams := event.Bindings{}.
		Set("o", event.ListValue([]event.Value{event.StringValue("l1"), event.StringValue("l2")})).
		Set("x", event.IntValue(5))
	dump := func(s *store.Store) string {
		var sb strings.Builder
		for _, name := range s.Tables() {
			tbl, err := s.Table(name)
			if err != nil {
				continue
			}
			sb.WriteString(name + "\n")
			tbl.Scan(func(id int64, r store.Row) bool {
				for _, v := range r {
					sb.WriteString(v.String() + "|")
				}
				sb.WriteByte('\n')
				return true
			})
		}
		return sb.String()
	}
	for _, src := range stmts {
		p := params
		if strings.HasPrefix(src, "BULK") {
			p = bulkParams
		}
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		sa, sb := prepStore(t), prepStore(t)
		prep := PrepareStmt(st)
		gr, ge := prep.Exec(sa, p)
		wr, we := ExecStmt(sb, st, p)
		switch {
		case (ge == nil) != (we == nil):
			t.Errorf("%q: prepared err %v, direct err %v", src, ge, we)
		case ge != nil:
			if ge.Error() != we.Error() {
				t.Errorf("%q: prepared err %q, direct err %q", src, ge, we)
			}
		case gr.RowsAffected != wr.RowsAffected:
			t.Errorf("%q: prepared affected %d, direct %d", src, gr.RowsAffected, wr.RowsAffected)
		}
		if da, db := dump(sa), dump(sb); da != db {
			t.Errorf("%q: stores diverge\nprepared:\n%s\ndirect:\n%s", src, da, db)
		}
	}
}
