package sqlmini

import (
	"strings"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/lex"
	"rcep/internal/store"
)

// Scalar aggregates fold list bindings collected from SEQ+ runs when an
// aggregate call appears outside a SELECT projection — in rule conditions
// and INSERT actions.

func aggParams() event.Bindings {
	return event.MakeBindings(map[string]event.Value{
		"v": event.ListValue([]event.Value{
			event.StringValue("7"), event.FloatValue(9.5), event.IntValue(8),
		}),
		"empty": event.ListValue(nil),
		"words": event.ListValue([]event.Value{
			event.StringValue("abc"), event.StringValue("1"),
		}),
		"x": event.IntValue(4),
	})
}

// mustParseExpr parses src as one whole expression, the way the rules
// parser reads a condition.
func mustParseExpr(t *testing.T, src string) Expr {
	t.Helper()
	s, err := lex.NewStream(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	x, err := ParseExprStream(s)
	if err == nil && !s.AtEOF() {
		err = lex.Errorf(s.Peek(), "unexpected trailing input %s", s.Peek())
	}
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return x
}

func evalScalar(t *testing.T, src string, params event.Bindings) (event.Value, error) {
	t.Helper()
	return EvalExpr(store.New(), mustParseExpr(t, src), params, nil)
}

func TestScalarAggregatesFoldLists(t *testing.T) {
	params := aggParams()
	cases := []struct {
		src  string
		want string
	}{
		{"COUNT(v)", "3"},
		{"SUM(v)", "24.5"},
		{"AVG(v)", event.FloatValue(24.5 / 3).String()},
		{"MIN(v)", "7"},
		{"MAX(v)", "9.5"},
		{"COUNT(empty)", "0"},
		{"SUM(empty)", "0"},
		{"MAX(v) > 8", "true"},
		{"COUNT(v) >= 3 AND SUM(v) < 30", "true"},
		{"SUM(v) + x", "28.5"},
		{"COUNT(x)", "1"}, // scalar folds as a one-element column
		{"MAX(x)", "4"},
	}
	for _, c := range cases {
		got, err := evalScalar(t, c.src, params)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
	// AVG over an empty column is NULL, like the SELECT projection path.
	if got, err := evalScalar(t, "AVG(empty)", params); err != nil || !got.IsNull() {
		t.Errorf("AVG(empty) = %v, %v, want NULL", got, err)
	}
}

func TestScalarAggregateErrors(t *testing.T) {
	params := aggParams()
	cases := []struct {
		src     string
		wantErr string
	}{
		{"SUM(words)", "SUM over non-numeric value"},
		{"AVG(words)", "AVG over non-numeric value"},
		{"COUNT(*)", "only valid in a SELECT projection"},
		{"SUM(v, x)", "needs exactly one argument"},
		{"MAX()", "needs exactly one argument"},
	}
	for _, c := range cases {
		_, err := evalScalar(t, c.src, params)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q: err = %v, want containing %q", c.src, err, c.wantErr)
		}
	}
}

// TestScalarAggregateInInsert drives the action path: an INSERT whose
// VALUES fold a run's column.
func TestScalarAggregateInInsert(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE excursions (zone TEXT, n INT, peak REAL)`, nil)
	params := event.MakeBindings(map[string]event.Value{
		"z": event.StringValue("dock4"),
		"v": event.ListValue([]event.Value{
			event.StringValue("8.5"), event.StringValue("10"), event.StringValue("9"),
		}),
	})
	mustExec(t, s, `INSERT INTO excursions VALUES (z, COUNT(v), MAX(v))`, params)
	res := mustExec(t, s, `SELECT n, peak FROM excursions WHERE zone = 'dock4'`, nil)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 || res.Rows[0][1].Float() != 10 {
		t.Fatalf("inserted row: %v", res.Rows)
	}
}

// TestRowContextAggregatesStayRejected pins the pre-existing behavior:
// aggregates are still invalid wherever a table row is in scope.
func TestRowContextAggregatesStayRejected(t *testing.T) {
	s := newDB(t)
	for _, src := range []string{
		`SELECT * FROM items WHERE SUM(qty) = 1`,
		`UPDATE items SET qty = 1 WHERE COUNT(qty) > 0`,
		`DELETE FROM items WHERE MAX(qty) > 0`,
	} {
		if _, err := Exec(s, src, nil); err == nil || !strings.Contains(err.Error(), "outside SELECT projection") {
			t.Errorf("%q: err = %v, want outside-projection rejection", src, err)
		}
	}
}
