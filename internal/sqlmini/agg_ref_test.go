package sqlmini

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

// refSelect runs an aggregated SELECT as sqlmini did before grouped
// aggregates folded rows as they were read: it materialises the relation,
// then the rows of every group, and folds an aggregate call over its
// group's rows when evaluation reaches the call. FuzzAggregateMatchesReference
// holds execSelect to it.
func refSelect(s *store.Store, sel *Select, params event.Bindings) (Result, error) {
	rel, err := buildRelation(s, sel, params, nil)
	if err != nil {
		return Result{}, err
	}
	var res Result
	for i, it := range sel.Items {
		res.Columns = append(res.Columns, itemName(it, i))
	}
	var groups [][][]event.Value
	if len(sel.GroupBy) == 0 {
		groups = [][][]event.Value{rel.rows}
	} else {
		var positions []int
		for _, g := range sel.GroupBy {
			p, err := rel.index(g)
			if err != nil {
				return Result{}, fmt.Errorf("sqlmini: GROUP BY: %w", err)
			}
			positions = append(positions, p)
		}
		index := map[string]int{}
		var key []byte
		for _, r := range rel.rows {
			key = key[:0]
			for _, p := range positions {
				key = appendKey(key, r[p])
			}
			g, seen := index[string(key)]
			if !seen {
				g = len(groups)
				index[string(key)] = g
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], r)
		}
	}
	// Each aggregate call of the projection and HAVING becomes a call of
	// a user function that folds it over the current group.
	ref := &refGroups{row: env{store: s, rel: rel, params: params}, funcs: Funcs{}}
	var items []Expr
	for _, it := range sel.Items {
		items = append(items, ref.rewrite(it.Expr))
	}
	having := ref.rewrite(sel.Having)
	e := env{store: s, rel: rel, params: params, funcs: ref.funcs}
	for _, g := range groups {
		ref.group = g
		if len(g) > 0 {
			e.row = g[0]
		} else {
			e.row = make([]event.Value, rel.width())
		}
		if having != nil {
			v, err := e.eval(having)
			if err != nil {
				return Result{}, err
			}
			if !truthy(v) {
				continue
			}
		}
		var out []event.Value
		for _, x := range items {
			v, err := e.eval(x)
			if err != nil {
				return Result{}, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	if len(sel.OrderBy) > 0 {
		if err := orderAggregated(sel, &res); err != nil {
			return Result{}, err
		}
	}
	if sel.Limit >= 0 && len(res.Rows) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	return res, nil
}

// refGroups evaluates the aggregate calls refSelect rewrote.
type refGroups struct {
	row   env // the row context an argument is evaluated in
	group [][]event.Value
	funcs Funcs
}

// rewrite copies x with every aggregate call outside an aggregate's
// argument replaced by a call of a new function in r.funcs.
func (r *refGroups) rewrite(x Expr) Expr {
	switch n := x.(type) {
	case *Call:
		if n.isAggregate() {
			name := fmt.Sprintf("ref_agg_%d", len(r.funcs))
			r.funcs[name] = func([]event.Value) (event.Value, error) { return r.fold(n) }
			return &Call{Name: name}
		}
		c := *n
		c.Args = nil
		for _, a := range n.Args {
			c.Args = append(c.Args, r.rewrite(a))
		}
		return &c
	case *Unary:
		return &Unary{Op: n.Op, X: r.rewrite(n.X)}
	case *Binary:
		return &Binary{Op: n.Op, L: r.rewrite(n.L), R: r.rewrite(n.R)}
	case *InList:
		c := *n
		c.X = r.rewrite(n.X)
		c.List = nil
		for _, a := range n.List {
			c.List = append(c.List, r.rewrite(a))
		}
		return &c
	case *IsNull:
		return &IsNull{X: r.rewrite(n.X), Negate: n.Negate}
	case *Like:
		return &Like{X: r.rewrite(n.X), Pattern: r.rewrite(n.Pattern), Negate: n.Negate}
	}
	return x
}

// fold is the grouped aggregate evaluation the fold replaced: the
// argument is evaluated in each of the group's rows, as a row context, and
// the first error is raised.
func (r *refGroups) fold(c *Call) (event.Value, error) {
	if c.Star {
		if !strings.EqualFold(c.Name, "count") {
			return event.Null, fmt.Errorf("sqlmini: %s(*) is not valid", c.Name)
		}
		return event.IntValue(int64(len(r.group))), nil
	}
	if len(c.Args) != 1 {
		return event.Null, fmt.Errorf("sqlmini: %s needs exactly one argument", c.Name)
	}
	var acc event.AggAcc
	for _, row := range r.group {
		r.row.row = row
		v, err := r.row.eval(c.Args[0])
		if err != nil {
			return event.Null, err
		}
		acc.Add(v)
	}
	op, _ := event.AggOpNamed(c.Name)
	res, err := acc.Result(op)
	if ae, ok := err.(*event.AggError); ok {
		if ae.Incomparable {
			return event.Null, fmt.Errorf("sqlmini: %s over incomparable values", c.Name)
		}
		return event.Null, fmt.Errorf("sqlmini: %s over non-numeric value %s", c.Name, ae.BadVal)
	}
	return res, err
}

// FuzzAggregateMatchesReference runs random aggregated SELECTs through
// Exec and through refSelect, and requires the same columns, rows and
// error text. Tables t(k, g, n, x, s) and u(k, m) draw nulls, ints,
// floats and strings with repeated keys, and are sometimes empty; the
// SELECTs group by up to two columns, filter by HAVING, nest aggregates
// under scalar operators, IN and coalesce, and raise the aggregate errors
// (SUM over strings, a nested aggregate, MIN(*), two arguments, division
// by zero in an argument), over one table or a join, with WHEREs that name
// columns plainly or qualified.
func FuzzAggregateMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		data := make([]byte, 32+seed)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		s := store.New()
		mustExec(t, s, `CREATE TABLE t (k STRING, g INT, n INT, x FLOAT, s STRING)`, nil)
		mustExec(t, s, `CREATE TABLE u (k STRING, m INT)`, nil)
		tt, _ := s.Table("t")
		for i := pick(g, 0, 1, 3, 5, 8, 12, 12, 12); i > 0; i-- {
			if err := tt.Insert([]event.Value{g.aggKey(), g.aggInt(), g.aggInt(), g.aggFloat(), g.aggString()}); err != nil {
				t.Fatal(err)
			}
		}
		ut, _ := s.Table("u")
		for i := pick(g, 0, 1, 2, 4, 6); i > 0; i-- {
			if err := ut.Insert([]event.Value{g.aggKey(), g.aggInt()}); err != nil {
				t.Fatal(err)
			}
		}
		params := event.MakeBindings(map[string]event.Value{"p": g.aggInt(), "q": g.aggKey()})
		for n := 1 + g.intn(4); n > 0; n-- {
			sql := g.aggSelect()
			sel := mustParse(t, sql).(*Select)
			want, wantErr := refSelect(s, sel, params)
			got, gotErr := Exec(s, sql, params)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || jsonOf(t, got) != jsonOf(t, want) {
				t.Fatalf("%s with %v:\nfold      %v, %v\nreference %v, %v", sql, params, got, gotErr, want, wantErr)
			}
		}
	})
}

func (g *fuzzGen) aggKey() event.Value {
	return pick(g, event.Null, event.StringValue("a"), event.StringValue("b"), event.StringValue("c"), event.StringValue(""))
}

func (g *fuzzGen) aggInt() event.Value {
	return pick(g, event.Null, event.IntValue(0), event.IntValue(1), event.IntValue(2), event.IntValue(-3), event.IntValue(4), event.IntValue(1))
}

func (g *fuzzGen) aggFloat() event.Value {
	return pick(g, event.Null, event.FloatValue(0.5), event.FloatValue(-2), event.FloatValue(3.25), event.FloatValue(1))
}

func (g *fuzzGen) aggString() event.Value {
	return pick(g, event.Null, event.StringValue("a"), event.StringValue("7"), event.StringValue("2.5"), event.StringValue("zz"))
}

// aggSource draws the FROM clause and the column names it can use: the
// table plain, under an alias, or joined to u.
func (g *fuzzGen) aggSource() (from string, cols []string) {
	switch g.intn(4) {
	case 0:
		return "t a", []string{"a.k", "g", "a.n", "x", "s"}
	case 1:
		return "t JOIN u ON t.k = u.k", []string{"t.k", "u.k", "g", "n", "t.x", "s", "m", "k"}
	case 2:
		return "t a JOIN u b ON a.g = b.m", []string{"a.k", "b.k", "a.g", "n", "x", "b.m"}
	}
	return "t", []string{"k", "g", "n", "x", "s", "t.n"}
}

// aggArg draws an aggregate's argument.
func (g *fuzzGen) aggArg(cols []string) string {
	c := pick(g, cols...)
	switch g.intn(8) {
	case 0:
		return c + " * 2"
	case 1:
		return "1 / " + c // division by zero on 0
	case 2:
		return "coalesce(" + c + ", " + pick(g, cols...) + ")"
	case 3:
		return "SUM(" + c + ")" // nested: an error
	}
	return c
}

// aggCall draws an aggregate call, sometimes one evaluation rejects.
func (g *fuzzGen) aggCall(cols []string) string {
	switch g.intn(10) {
	case 0, 1:
		return "COUNT(*)"
	case 2:
		return pick(g, "MIN(*)", "COUNT(n, g)", "sum(s)")
	}
	return pick(g, "COUNT", "SUM", "AVG", "MIN", "MAX", "count", "Max") + "(" + g.aggArg(cols) + ")"
}

// aggExpr draws an aggregate call, bare or under a scalar operator.
func (g *fuzzGen) aggExpr(cols []string) string {
	a := g.aggCall(cols)
	switch g.intn(8) {
	case 0:
		return a + " + " + pick(g, "1", "p", pick(g, cols...))
	case 1:
		return "-" + a
	case 2:
		return "abs(" + a + ")"
	case 3:
		return "coalesce(" + a + ", " + g.aggCall(cols) + ")"
	case 4:
		return a + " IN (0, 1, 2)"
	case 5:
		return a + " IS NULL"
	}
	return a
}

func (g *fuzzGen) aggSelect() string {
	from, cols := g.aggSource()
	var groupBy []string
	for n := g.intn(3); n > 0; n-- {
		groupBy = append(groupBy, pick(g, append(cols, "nope")...))
	}
	items := []string{g.aggExpr(cols)}
	for n := g.intn(3); n > 0; n-- {
		if len(groupBy) > 0 && g.intn(3) == 0 {
			items = append(items, pick(g, groupBy...))
		} else if g.intn(5) == 0 {
			items = append(items, pick(g, cols...)) // reads the group's first row
		} else {
			items = append(items, g.aggExpr(cols))
		}
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM " + from
	switch g.intn(5) {
	case 0:
		sql += " WHERE " + pick(g, cols...) + pick(g, " > 0", " IS NOT NULL", " != q")
	case 1:
		sql += " WHERE 1 / " + pick(g, cols...) + " != 5" // division by zero on 0
	}
	if len(groupBy) > 0 {
		sql += " GROUP BY " + strings.Join(groupBy, ", ")
	}
	if g.intn(3) == 0 {
		sql += " HAVING (" + g.aggExpr(cols) + ")" + pick(g, " > 0", " != p", " IS NOT NULL", "")
	}
	if g.intn(4) == 0 {
		sql += " ORDER BY 1" + pick(g, "", " DESC")
	}
	if g.intn(5) == 0 {
		sql += " LIMIT " + pick(g, "0", "1", "2")
	}
	return sql
}

// TestUncollectedAggregateFailsLoudly: a group keeps accumulators only for
// the calls collected from the projection and HAVING. A call that was not
// collected is refused, never given another call's accumulator.
func TestUncollectedAggregateFailsLoudly(t *testing.T) {
	folded := &Call{Name: "SUM", Args: []Expr{&Ref{Name: "n"}}}
	stray := &Call{Name: "SUM", Args: []Expr{&Ref{Name: "n"}}}
	a := &aggState{calls: []*Call{folded}, index: map[string]int{}}
	a.addGroup(store.Row{event.IntValue(5)})
	a.groups[0].aggs[0].acc.Add(event.IntValue(5))
	e := env{agg: a, row: a.groups[0].first}
	if v, err := e.eval(folded); err != nil || v.Int() != 5 {
		t.Fatalf("collected call: %v, %v", v, err)
	}
	if v, err := e.eval(stray); err == nil || !strings.Contains(err.Error(), "was not folded") {
		t.Fatalf("uncollected call: %v, %v; want an error", v, err)
	}
}
