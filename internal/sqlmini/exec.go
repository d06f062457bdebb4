package sqlmini

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

// Result is the outcome of executing a statement.
type Result struct {
	Columns      []string        // for SELECT
	Rows         [][]event.Value // for SELECT
	RowsAffected int             // for INSERT/UPDATE/DELETE
}

// Exec parses and executes one statement against the store, resolving
// named parameters from params (the triggering event's bindings).
func Exec(s *store.Store, sql string, params event.Bindings) (Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return Result{}, err
	}
	return ExecStmt(s, st, params)
}

// PreparedStmt is a parsed statement held for repeated execution.
type PreparedStmt struct{ stmt Stmt }

// PrepareStmt holds st for repeated execution.
func PrepareStmt(st Stmt) *PreparedStmt { return &PreparedStmt{stmt: st} }

// Exec executes the statement; it is ExecStmt(s, stmt, params).
func (p *PreparedStmt) Exec(s *store.Store, params event.Bindings) (Result, error) {
	return ExecStmt(s, p.stmt, params)
}

// ExecStmt executes a parsed statement. The Result is a value: a write
// allocates only the rows it stores.
func ExecStmt(s *store.Store, st Stmt, params event.Bindings) (Result, error) {
	switch x := st.(type) {
	case *CreateTable:
		return Result{}, s.CreateTable(x.Table, store.Schema(x.Cols))
	case *Insert:
		return execInsert(s, x, params)
	case *Update:
		tbl, err := s.Table(x.Table)
		if err != nil {
			return Result{}, err
		}
		return updateRows(tbl, x, planMatch(s, tbl, x.Where, params))
	case *Delete:
		tbl, err := s.Table(x.Table)
		if err != nil {
			return Result{}, err
		}
		return deleteRows(tbl, planMatch(s, tbl, x.Where, params))
	case *Select:
		return execSelect(s, x, params)
	case *Explain:
		return explain(s, x.Stmt, params)
	}
	return Result{}, fmt.Errorf("sqlmini: unsupported statement %T", st)
}

// explain renders the execution plan as one row per step.
func explain(s *store.Store, st Stmt, params event.Bindings) (Result, error) {
	res := Result{Columns: []string{"step"}}
	add := func(format string, args ...any) {
		res.Rows = append(res.Rows, []event.Value{event.StringValue(fmt.Sprintf(format, args...))})
	}
	// describeAccess shows the match planner's choice for the table access,
	// the same planMatch result execution runs.
	describeAccess := func(table string, where Expr) {
		tbl, err := s.Table(table)
		if err != nil {
			add("scan %s (table missing at plan time)", table)
			return
		}
		p := planMatch(s, tbl, where, params).probe
		if p.Col != "" && tbl.HasIndex(p.Col) {
			add("index probe %s.%s = %s", table, p.Col, p.Val)
			add("filter remaining predicate")
			return
		}
		add("full scan %s (%d rows)", table, tbl.Len())
		if p.Col != "" {
			add("prefilter %s = %s", p.Col, p.Val)
		}
		if where != nil {
			add("filter WHERE")
		}
	}
	switch x := st.(type) {
	case *Select:
		pushed := pushedWhere(x)
		describeAccess(x.Table, pushed)
		for _, j := range x.Joins {
			add("nested-loop inner join %s ON ...", j.Table)
		}
		if x.Where != nil && pushed == nil {
			add("filter WHERE")
		}
		if len(x.GroupBy) > 0 {
			add("group by %v", x.GroupBy)
		}
		if x.Having != nil {
			add("filter HAVING")
		}
		if len(x.OrderBy) > 0 {
			add("sort by %d key(s)", len(x.OrderBy))
		}
		if x.Distinct {
			add("distinct")
		}
		if x.Limit >= 0 {
			add("limit %d", x.Limit)
		}
	case *Update:
		describeAccess(x.Table, x.Where)
		add("update %d column(s)", len(x.Sets))
	case *Delete:
		describeAccess(x.Table, x.Where)
		add("delete matching rows")
	case *Insert:
		if x.Bulk {
			add("bulk insert into %s (one row per list element)", x.Table)
		} else {
			add("insert into %s", x.Table)
		}
	case *CreateTable:
		add("create table %s (%d columns)", x.Table, len(x.Cols))
	case *Explain:
		add("explain explain: the plan is a plan")
	default:
		return Result{}, fmt.Errorf("sqlmini: cannot explain %T", st)
	}
	return res, nil
}

// Funcs registers user-defined scalar functions callable from expressions
// (rule conditions use them as "user-defined boolean functions", §3).
// Names are matched case-insensitively and take precedence over built-ins.
type Funcs map[string]func(args []event.Value) (event.Value, error)

// EvalExpr evaluates a standalone expression (no row context) with named
// parameters and optional user functions. Used for rule conditions.
func EvalExpr(s *store.Store, x Expr, params event.Bindings, funcs Funcs) (event.Value, error) {
	ev := &env{store: s, params: params, funcs: funcs}
	return ev.eval(x)
}

// Truthy reports whether a value counts as true in a condition.
func Truthy(v event.Value) bool { return truthy(v) }

// env is the context of sqlmini's one expression evaluator, eval. A name
// resolves against the current row of a single table (schema: WHERE and
// SET) or of a joined relation (rel: qualified names, aliases, the
// ambiguity error), then against the named parameters. A set agg marks a
// group context: aggregate calls read group grp's accumulators in agg, and
// other names read the group's first row (see evalAggregate).
type env struct {
	store  *store.Store
	schema store.Schema
	rel    *relation
	row    store.Row
	agg    *aggState
	grp    int
	params event.Bindings
	funcs  Funcs
	subs   []subResult // run ahead by evalSubqueries
}

// subResult is the outcome of one uncorrelated subquery, run once for a
// whole statement.
type subResult struct {
	sel *Select
	res Result
	err error
}

func (e *env) resolve(name string) (event.Value, error) {
	if e.schema != nil {
		if i := e.schema.Index(name); i >= 0 {
			if e.row == nil {
				return event.Null, fmt.Errorf("sqlmini: column %s referenced outside a row context", name)
			}
			return e.row[i], nil
		}
	}
	if e.rel != nil {
		i, err := e.rel.index(name)
		if err == nil {
			return e.row[i], nil
		}
		if err != errNoColumn {
			return event.Null, err
		}
	}
	if v, ok := e.params.Get(name); ok {
		return v, nil
	}
	return event.Null, fmt.Errorf("sqlmini: unknown column or parameter %q", name)
}

// eval evaluates an expression.
func (e *env) eval(x Expr) (event.Value, error) {
	switch n := x.(type) {
	case *Lit:
		return n.V, nil
	case *Ref:
		return e.resolve(n.Name)
	case *Unary:
		v, err := e.eval(n.X)
		if err != nil {
			return event.Null, err
		}
		switch n.Op {
		case "NOT":
			return event.BoolValue(!truthy(v)), nil
		case "-":
			switch v.Kind() {
			case event.KindInt:
				return event.IntValue(-v.Int()), nil
			case event.KindFloat:
				return event.FloatValue(-v.Float()), nil
			}
			return event.Null, fmt.Errorf("sqlmini: cannot negate %s", v.Kind())
		}
		return event.Null, fmt.Errorf("sqlmini: unknown unary op %s", n.Op)
	case *Binary:
		return e.evalBinary(n)
	case *Call:
		return e.evalScalarCall(n)
	case *Exists:
		if e.store == nil {
			return event.Null, fmt.Errorf("sqlmini: EXISTS requires a data store")
		}
		res, err := e.subquery(n.Sub)
		if err != nil {
			return event.Null, err
		}
		found := len(res.Rows) > 0
		if n.Negate {
			found = !found
		}
		return event.BoolValue(found), nil
	case *InList:
		v, err := e.eval(n.X)
		if err != nil {
			return event.Null, err
		}
		var found bool
		if n.Sub != nil {
			found, err = e.inSubquery(n.Sub, v)
			if err != nil {
				return event.Null, err
			}
		} else {
			for _, le := range n.List {
				lv, err := e.eval(le)
				if err != nil {
					return event.Null, err
				}
				if v.Equal(lv) {
					found = true
					break
				}
			}
		}
		if n.Negate {
			found = !found
		}
		return event.BoolValue(found), nil
	case *IsNull:
		v, err := e.eval(n.X)
		if err != nil {
			return event.Null, err
		}
		isNull := v.IsNull()
		if n.Negate {
			isNull = !isNull
		}
		return event.BoolValue(isNull), nil
	case *Like:
		v, err := e.eval(n.X)
		if err != nil {
			return event.Null, err
		}
		p, err := e.eval(n.Pattern)
		if err != nil {
			return event.Null, err
		}
		m := likeMatch(v.String(), p.String())
		if n.Negate {
			m = !m
		}
		return event.BoolValue(m), nil
	}
	return event.Null, fmt.Errorf("sqlmini: unsupported expression %T", x)
}

// inSubquery evaluates x IN (SELECT ...): the subselect must project a
// single column; membership compares with coercion-free equality.
func (e *env) inSubquery(sub *Select, v event.Value) (bool, error) {
	if e.store == nil {
		return false, fmt.Errorf("sqlmini: IN (SELECT ...) requires a data store")
	}
	res, err := e.subquery(sub)
	if err != nil {
		return false, err
	}
	if len(res.Columns) != 1 {
		return false, fmt.Errorf("sqlmini: IN subquery must select exactly one column, got %d", len(res.Columns))
	}
	for _, row := range res.Rows {
		if v.Equal(row[0]) {
			return true, nil
		}
	}
	return false, nil
}

// subquery returns the result of sub: the run evalSubqueries kept, or a
// fresh one.
func (e *env) subquery(sub *Select) (Result, error) {
	for _, q := range e.subs {
		if q.sel == sub {
			return q.res, q.err
		}
	}
	return execSelect(e.store, sub, e.params)
}

// evalSubqueries runs the subqueries in x and keeps their results, errors
// included, for eval to use where it reaches them: an error is raised only
// there. Subqueries are uncorrelated, they see only the parameters, so one
// run serves every row. A statement calls it before it takes a table lock,
// so a subquery on the statement's own table never locks it again.
func (e *env) evalSubqueries(x Expr) {
	walk(x, func(x Expr) bool {
		switch n := x.(type) {
		case *Exists:
			e.keepSubquery(n.Sub)
		case *InList:
			if n.Sub != nil {
				e.keepSubquery(n.Sub)
			}
		}
		return true
	})
}

func (e *env) keepSubquery(sub *Select) {
	res, err := e.subquery(sub)
	e.subs = append(e.subs, subResult{sub, res, err})
}

func (e *env) evalBinary(n *Binary) (event.Value, error) {
	switch n.Op {
	case "AND":
		l, err := e.eval(n.L)
		if err != nil {
			return event.Null, err
		}
		if !truthy(l) {
			return event.BoolValue(false), nil
		}
		r, err := e.eval(n.R)
		if err != nil {
			return event.Null, err
		}
		return event.BoolValue(truthy(r)), nil
	case "OR":
		l, err := e.eval(n.L)
		if err != nil {
			return event.Null, err
		}
		if truthy(l) {
			return event.BoolValue(true), nil
		}
		r, err := e.eval(n.R)
		if err != nil {
			return event.Null, err
		}
		return event.BoolValue(truthy(r)), nil
	}
	l, err := e.eval(n.L)
	if err != nil {
		return event.Null, err
	}
	r, err := e.eval(n.R)
	if err != nil {
		return event.Null, err
	}
	switch n.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		return compareValues(n.Op, l, r)
	case "||":
		return event.StringValue(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return arith(n.Op, l, r)
	}
	return event.Null, fmt.Errorf("sqlmini: unknown operator %s", n.Op)
}

// compareValues compares with coercion so 'UC' string literals compare
// against time columns and numeric kinds mix freely.
func compareValues(op string, l, r event.Value) (event.Value, error) {
	if l.IsNull() || r.IsNull() {
		// SQL-ish: comparisons with null are false (no three-valued logic).
		return event.BoolValue(false), nil
	}
	cl, cr := l, r
	if l.Kind() != r.Kind() {
		if c, err := store.Coerce(r, l.Kind()); err == nil {
			cr = c
		} else if c, err := store.Coerce(l, r.Kind()); err == nil {
			cl = c
		}
	}
	cmp, ok := cl.Compare(cr)
	if !ok {
		// Last resort: compare display forms for equality ops only.
		if op == "=" {
			return event.BoolValue(store.Format(cl) == store.Format(cr)), nil
		}
		if op == "!=" {
			return event.BoolValue(store.Format(cl) != store.Format(cr)), nil
		}
		return event.Null, fmt.Errorf("sqlmini: cannot compare %s with %s", l.Kind(), r.Kind())
	}
	switch op {
	case "=":
		return event.BoolValue(cmp == 0), nil
	case "!=":
		return event.BoolValue(cmp != 0), nil
	case "<":
		return event.BoolValue(cmp < 0), nil
	case "<=":
		return event.BoolValue(cmp <= 0), nil
	case ">":
		return event.BoolValue(cmp > 0), nil
	case ">=":
		return event.BoolValue(cmp >= 0), nil
	}
	return event.Null, fmt.Errorf("sqlmini: bad comparison %s", op)
}

func arith(op string, l, r event.Value) (event.Value, error) {
	lk, rk := l.Kind(), r.Kind()
	numeric := func(k event.Kind) bool {
		return k == event.KindInt || k == event.KindFloat || k == event.KindTime
	}
	if !numeric(lk) || !numeric(rk) {
		return event.Null, fmt.Errorf("sqlmini: %s needs numeric operands, got %s and %s", op, lk, rk)
	}
	if lk == event.KindFloat || rk == event.KindFloat {
		a, b := l.Float(), r.Float()
		switch op {
		case "+":
			return event.FloatValue(a + b), nil
		case "-":
			return event.FloatValue(a - b), nil
		case "*":
			return event.FloatValue(a * b), nil
		case "/":
			if b == 0 {
				return event.Null, fmt.Errorf("sqlmini: division by zero")
			}
			return event.FloatValue(a / b), nil
		case "%":
			return event.Null, fmt.Errorf("sqlmini: %% needs integers")
		}
	}
	a, b := asInt(l), asInt(r)
	switch op {
	case "+":
		return event.IntValue(a + b), nil
	case "-":
		return event.IntValue(a - b), nil
	case "*":
		return event.IntValue(a * b), nil
	case "/":
		if b == 0 {
			return event.Null, fmt.Errorf("sqlmini: division by zero")
		}
		return event.IntValue(a / b), nil
	case "%":
		if b == 0 {
			return event.Null, fmt.Errorf("sqlmini: modulo by zero")
		}
		return event.IntValue(a % b), nil
	}
	return event.Null, fmt.Errorf("sqlmini: bad arithmetic op %s", op)
}

func asInt(v event.Value) int64 {
	if v.Kind() == event.KindTime {
		return int64(v.Time())
	}
	return v.Int()
}

func truthy(v event.Value) bool {
	switch v.Kind() {
	case event.KindBool:
		return v.Bool()
	case event.KindNull:
		return false
	case event.KindInt:
		return v.Int() != 0
	case event.KindFloat:
		return v.Float() != 0
	case event.KindString:
		return v.Str() != ""
	}
	return true
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune).
func likeMatch(s, pattern string) bool {
	return likeRec([]rune(s), []rune(pattern))
}

func likeRec(s, p []rune) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func (e *env) evalScalarCall(c *Call) (event.Value, error) {
	if c.isAggregate() {
		return e.evalAggregate(c)
	}
	var args []event.Value
	for _, a := range c.Args {
		v, err := e.eval(a)
		if err != nil {
			return event.Null, err
		}
		args = append(args, v)
	}
	return e.applyScalar(c.Name, args)
}

// evalAggregate reads an aggregate call off an event.AggAcc, the
// accumulator guards use too (null skipping, int/float widening,
// comparison families). In a group context it is the group's, folded as
// the rows were read (see aggState), or the error its argument raised. A
// row context rejects aggregates, so they do not nest. Elsewhere (rule
// conditions and actions) the argument is one value: a list binding folds
// element-wise, a scalar as one element, null as none.
func (e *env) evalAggregate(c *Call) (event.Value, error) {
	if e.agg == nil && (e.schema != nil || e.rel != nil) {
		return event.Null, fmt.Errorf("sqlmini: aggregate %s outside SELECT projection", c.Name)
	}
	if c.Star {
		switch {
		case e.agg == nil:
			return event.Null, fmt.Errorf("sqlmini: %s(*) is only valid in a SELECT projection", c.Name)
		case !strings.EqualFold(c.Name, "count"):
			return event.Null, fmt.Errorf("sqlmini: %s(*) is not valid", c.Name)
		}
		return event.IntValue(e.agg.groups[e.grp].count), nil
	}
	if len(c.Args) != 1 {
		return event.Null, fmt.Errorf("sqlmini: %s needs exactly one argument", c.Name)
	}
	var acc *event.AggAcc
	if e.agg != nil {
		i := slices.Index(e.agg.calls, c)
		if i < 0 {
			return event.Null, fmt.Errorf("sqlmini: internal error: aggregate %s was not folded", c.Name)
		}
		slot := &e.agg.groups[e.grp].aggs[i]
		if slot.err != nil {
			return event.Null, slot.err
		}
		acc = &slot.acc
	} else {
		v, err := e.eval(c.Args[0])
		if err != nil {
			return event.Null, err
		}
		acc = new(event.AggAcc)
		for i := 0; i < v.Len(); i++ {
			acc.Add(event.CoerceScalar(v.Elem(i)))
		}
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

// applyScalar dispatches a scalar call on already-evaluated arguments.
// User functions are looked up dynamically (they may be registered after
// statements are parsed) and shadow built-ins, matching case-insensitively.
func (e *env) applyScalar(cname string, args []event.Value) (event.Value, error) {
	if e.funcs != nil {
		for name, fn := range e.funcs {
			if strings.EqualFold(name, cname) {
				return fn(args)
			}
		}
	}
	name := strings.ToLower(cname)
	if len(args) != 1 && slices.Contains([]string{"upper", "lower", "length", "abs"}, name) {
		return event.Null, fmt.Errorf("sqlmini: %s needs 1 argument(s), got %d", cname, len(args))
	}
	switch name {
	case "upper":
		return event.StringValue(strings.ToUpper(args[0].String())), nil
	case "lower":
		return event.StringValue(strings.ToLower(args[0].String())), nil
	case "length":
		return event.IntValue(int64(len(args[0].String()))), nil
	case "abs":
		switch args[0].Kind() {
		case event.KindInt:
			return event.IntValue(max(args[0].Int(), -args[0].Int())), nil
		case event.KindFloat:
			v := args[0].Float()
			if v < 0 {
				v = -v
			}
			return event.FloatValue(v), nil
		}
		return event.Null, fmt.Errorf("sqlmini: abs needs a number")
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return event.Null, nil
	}
	return event.Null, fmt.Errorf("sqlmini: unknown function %s", cname)
}

// execInsert inserts one row, or — for BULK INSERT — one row per element
// of the list-valued parameters referenced by the VALUES exprs (Rule 4's
// containment aggregation).
func execInsert(s *store.Store, ins *Insert, params event.Bindings) (Result, error) {
	tbl, err := s.Table(ins.Table)
	if err != nil {
		return Result{}, err
	}
	schema := tbl.Schema()
	// Column mapping, on the stack for up to eight values.
	var buf [8]int
	positions := slices.Grow(buf[:0], len(ins.Values))[:len(ins.Values)]
	if len(ins.Cols) > 0 {
		if len(ins.Cols) != len(ins.Values) {
			return Result{}, fmt.Errorf("sqlmini: %d columns but %d values", len(ins.Cols), len(ins.Values))
		}
		for i, c := range ins.Cols {
			p := schema.Index(c)
			if p < 0 {
				return Result{}, fmt.Errorf("sqlmini: %s: no such column %s", ins.Table, c)
			}
			positions[i] = p
		}
	} else {
		if len(ins.Values) != len(schema) {
			return Result{}, fmt.Errorf("sqlmini: %s has %d columns but %d values given", ins.Table, len(schema), len(ins.Values))
		}
		for i := range positions {
			positions[i] = i
		}
	}

	n, p := 1, params
	if ins.Bulk {
		// One element view per statement, rewritten for each row.
		n, p = bulkCardinality(params), make(event.Bindings, len(params))
	}
	inserted := 0
	for i := 0; i < n; i++ {
		if ins.Bulk {
			elementView(p, params, i)
		}
		ev := &env{store: s, params: p}
		row := make([]event.Value, len(schema))
		for j, ve := range ins.Values {
			v, err := ev.eval(ve)
			if err != nil {
				return Result{}, err
			}
			row[positions[j]] = v
		}
		if err := tbl.Insert(row); err != nil { // the table keeps row
			return Result{}, err
		}
		inserted++
	}
	return Result{RowsAffected: inserted}, nil
}

// bulkCardinality returns the common length of the list-valued bindings
// (scalar bindings repeat). With no lists the bulk insert degenerates to a
// single row.
func bulkCardinality(params event.Bindings) int {
	n := 1
	for _, kv := range params {
		if kv.Val.Kind() == event.KindList && kv.Val.Len() > n {
			n = kv.Val.Len()
		}
	}
	return n
}

// elementView writes into view, of params' length, the projection of
// params' list bindings onto their i'th element.
func elementView(view, params event.Bindings, i int) {
	for j, kv := range params {
		if v := kv.Val; v.Kind() == event.KindList {
			kv.Val = event.Null
			if i < v.Len() {
				kv.Val = v.Elem(i)
			}
		}
		view[j] = kv
	}
}

// matcher is the match planner's result for a single-table WHERE: the
// access path (a zero probe scans the table) and the environment every
// candidate row's WHERE is evaluated in. It is returned by value, so
// planning a statement allocates nothing.
type matcher struct {
	probe store.Probe
	env   env
	where Expr
}

// planMatch is the match planner behind SELECT, UPDATE, DELETE and
// EXPLAIN. It runs where's subqueries (see evalSubqueries), then turns a
// `col = <row-independent expr>` conjunct of where's AND tree whose value
// the store matches exactly (see probeable) into a probe: the first one on
// an indexed column, else the first one. The store serves a probe from
// the index, or prefilters its scan with it; candidates are re-checked
// against the whole WHERE either way. With no such conjunct it scans.
func planMatch(s *store.Store, tbl *store.Table, where Expr, params event.Bindings) matcher {
	m := matcher{env: env{store: s, schema: tbl.Schema(), params: params}, where: where}
	m.env.evalSubqueries(where)
	m.probe, _ = m.findProbe(tbl, where)
	return m
}

// findProbe returns x's preferred probe and whether its column is indexed.
func (m *matcher) findProbe(tbl *store.Table, x Expr) (store.Probe, bool) {
	b, ok := x.(*Binary)
	if !ok {
		return store.Probe{}, false
	}
	var l, r store.Probe
	var lIdx, rIdx bool
	switch b.Op {
	case "AND":
		if l, lIdx = m.findProbe(tbl, b.L); lIdx {
			return l, true
		}
		r, rIdx = m.findProbe(tbl, b.R)
	case "=":
		l = m.probeOn(b.L, b.R)
		if lIdx = l.Col != "" && tbl.HasIndex(l.Col); lIdx {
			return l, true
		}
		r = m.probeOn(b.R, b.L)
		rIdx = r.Col != "" && tbl.HasIndex(r.Col)
	}
	if rIdx || l.Col == "" {
		return r, rIdx
	}
	return l, false
}

// probeOn plans `colSide = valSide` as a probe. The value side is
// evaluated with the table schema set and no row, so a name that is both a
// column and a parameter resolves to the column, as it does per row, and
// fails: such a conjunct is row-dependent and cannot probe.
func (m *matcher) probeOn(colSide, valSide Expr) store.Probe {
	ref, ok := colSide.(*Ref)
	if !ok {
		return store.Probe{}
	}
	pos := m.env.schema.Index(ref.Name)
	if pos < 0 {
		return store.Probe{}
	}
	v, err := m.env.eval(valSide)
	if err != nil || !probeable(v, m.env.schema[pos].Type) {
		return store.Probe{}
	}
	return store.Probe{Col: ref.Name, Val: v}
}

// probeable reports whether a probe for v on a column of the given kind
// finds every row that `col = v` or `v = col` matches. A probe finds the
// cells that Equal v, and compareValues converts between kinds in ways
// Equal does not: `n = '5'` matches the int 5 through its display form.
// So v must have the column's kind, or convert exactly: int and time into
// each other, 'UC' into time. Floats never probe: the store would find
// the same rows (Compare orders NaN and -0 as the index keys them), but
// SQL creates no index and the RFID schema indexes no float column, so
// the case stays out. Null matches nothing and never probes.
func probeable(v event.Value, kind event.Kind) bool {
	switch v.Kind() {
	case kind:
		return kind != event.KindFloat
	case event.KindInt:
		return kind == event.KindTime
	case event.KindTime:
		return kind == event.KindInt
	case event.KindString:
		return kind == event.KindTime && v.Str() == "UC"
	}
	return false
}

// matches evaluates the WHERE against one candidate row.
func (m *matcher) matches(r store.Row) (bool, error) {
	if m.where == nil {
		return true, nil
	}
	m.env.row = r
	v, err := m.env.eval(m.where)
	if err != nil {
		return false, err
	}
	return truthy(v), nil
}

// matchRows calls visit on every row the plan matches, in insertion order.
func (m *matcher) matchRows(tbl *store.Table, visit func(store.Row)) error {
	var err error
	check := func(_ int64, r store.Row) bool {
		var ok bool
		if ok, err = m.matches(r); ok {
			visit(r)
		}
		return err == nil
	}
	if m.probe.Col == "" {
		tbl.Scan(check)
	} else if lerr := tbl.Lookup(m.probe.Col, m.probe.Val, check); lerr != nil {
		return lerr
	}
	return err
}

// updateRows runs up on the rows m matches.
func updateRows(tbl *store.Table, up *Update, m matcher) (Result, error) {
	schema := tbl.Schema()
	type setPos struct {
		pos int
		val Expr
	}
	var buf [4]setPos // on the stack for up to four assignments
	sets := buf[:0]
	for _, a := range up.Sets {
		p := schema.Index(a.Col)
		if p < 0 {
			return Result{}, fmt.Errorf("sqlmini: %s: no such column %s", up.Table, a.Col)
		}
		sets = append(sets, setPos{p, a.Val})
		m.env.evalSubqueries(a.Val)
	}
	n, err := tbl.UpdateWhere(m.probe, m.matches, func(r store.Row) (store.Row, error) {
		m.env.row = r
		for _, sp := range sets {
			v, err := m.env.eval(sp.val)
			if err != nil {
				return nil, err
			}
			r[sp.pos] = v
		}
		return r, nil
	})
	return Result{RowsAffected: n}, err
}

// deleteRows deletes the rows m matches.
func deleteRows(tbl *store.Table, m matcher) (Result, error) {
	n, err := tbl.DeleteWhere(m.probe, m.matches)
	return Result{RowsAffected: n}, err
}

// relation is an intermediate query result: the columns of its tables,
// in order, plus rows. Joins concatenate relations column-wise.
type relation struct {
	tables []relTable
	one    [1]relTable // tables' backing for a single table
	rows   [][]event.Value
	few    [4][]event.Value // rows' first backing: a point probe's few rows need no list
}

// relTable is one table of a relation: its name or alias and its schema.
type relTable struct {
	qual   string
	schema store.Schema
}

// width returns the relation's column count.
func (r *relation) width() int {
	n := 0
	for _, t := range r.tables {
		n += len(t.schema)
	}
	return n
}

// errNoColumn distinguishes "not a column" (fall back to parameters) from
// genuine resolution errors like ambiguity.
var errNoColumn = fmt.Errorf("sqlmini: no such column")

// index resolves a possibly qualified column reference.
func (r *relation) index(ref string) (int, error) {
	qual, col, qualified := strings.Cut(ref, ".")
	if !qualified {
		col = ref
	}
	found, off := -1, 0
	for _, t := range r.tables {
		for i, c := range t.schema {
			if !strings.EqualFold(c.Name, col) || qualified && !strings.EqualFold(t.qual, qual) {
				continue
			}
			if qualified {
				return off + i, nil
			}
			if found >= 0 {
				return -1, fmt.Errorf("sqlmini: column %s is ambiguous (qualify it)", ref)
			}
			found = off + i
		}
		off += len(t.schema)
	}
	switch {
	case qualified:
		return -1, fmt.Errorf("sqlmini: no column %s.%s", qual, col)
	case found < 0:
		return -1, errNoColumn
	}
	return found, nil
}

// tableRelation loads the rows of one table that where (nil: every row)
// matches as a relation, through the match planner. Its rows are the
// store's own, so nothing may modify them. Given a fold, it folds the rows
// into it as the scan reads them instead.
func tableRelation(s *store.Store, name, alias string, where Expr, params event.Bindings, fold *aggState) (*relation, error) {
	tbl, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	if alias == "" {
		alias = tbl.Name()
	}
	rel := &relation{one: [1]relTable{{alias, tbl.Schema()}}}
	rel.tables, rel.rows = rel.one[:], rel.few[:0]
	m := planMatch(s, tbl, where, params)
	visit := func(r store.Row) { rel.rows = append(rel.rows, r) } // immutable: aliased, not copied
	if fold != nil {
		fold.open(rel)
		visit = fold.fold
	}
	if err := m.matchRows(tbl, visit); err != nil {
		return nil, err
	}
	return rel, nil
}

// pushedWhere returns the WHERE that buildRelation evaluates while reading
// the FROM table, and so plans against its indexes, or nil when joins or
// qualified column references keep it above the table.
func pushedWhere(sel *Select) Expr {
	if len(sel.Joins) > 0 || hasQualifiedRef(sel.Where) {
		return nil
	}
	return sel.Where
}

// hasQualifiedRef reports whether the expression uses any table-qualified
// column reference (those need the relation resolver, not the plain
// schema resolver).
func hasQualifiedRef(x Expr) bool {
	found := false
	walk(x, func(x Expr) bool {
		if r, ok := x.(*Ref); ok && strings.Contains(r.Name, ".") {
			found = true
		}
		return !found
	})
	return found
}

// buildRelation evaluates FROM + JOINs + WHERE into one relation. Given a
// fold, it folds the relation's rows into it instead of keeping them: in
// the store scan when they are the FROM table's, else once they are joined
// and filtered.
func buildRelation(s *store.Store, sel *Select, params event.Bindings, fold *aggState) (*relation, error) {
	pushed := pushedWhere(sel)
	scanFold := fold
	if len(sel.Joins) > 0 || sel.Where != nil && pushed == nil {
		scanFold = nil
	}
	rel, err := tableRelation(s, sel.Table, sel.Alias, pushed, params, scanFold)
	if err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		right, err := tableRelation(s, j.Table, j.Alias, nil, params, nil)
		if err != nil {
			return nil, err
		}
		joined := &relation{tables: slices.Concat(rel.tables, right.tables)}
		e := env{store: s, rel: joined, params: params}
		for _, lr := range rel.rows {
			for _, rr := range right.rows {
				row := make([]event.Value, 0, len(lr)+len(rr))
				row = append(append(row, lr...), rr...)
				e.row = row
				v, err := e.eval(j.On)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					joined.rows = append(joined.rows, row)
				}
			}
		}
		rel = joined
	}
	if sel.Where != nil && pushed == nil {
		e := env{store: s, rel: rel, params: params}
		kept := rel.rows[:0]
		for _, row := range rel.rows {
			e.row = row
			v, err := e.eval(sel.Where)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
	}
	if fold != nil && scanFold == nil {
		fold.open(rel)
		for _, r := range rel.rows {
			fold.fold(r)
		}
	}
	return rel, nil
}

func execSelect(s *store.Store, sel *Select, params event.Bindings) (Result, error) {
	var calls []*Call
	if !sel.Star {
		for _, it := range sel.Items {
			calls = aggregateCalls(it.Expr, calls)
		}
	}
	aggregated := sel.Having != nil || len(sel.GroupBy) > 0 || len(calls) > 0

	// An aggregated projection folds its rows as they are read.
	var rel *relation
	if !aggregated || sel.Star {
		var err error
		if rel, err = buildRelation(s, sel, params, nil); err != nil {
			return Result{}, err
		}
	}
	var res Result
	switch {
	case sel.Star:
		if aggregated {
			return Result{}, fmt.Errorf("sqlmini: SELECT * with GROUP BY/HAVING is not supported")
		}
		for _, t := range rel.tables {
			for _, c := range t.schema {
				if len(sel.Joins) > 0 {
					c.Name = t.qual + "." + c.Name
				}
				res.Columns = append(res.Columns, c.Name)
			}
		}
		if len(rel.rows) > 0 { // no rows is a nil list, as in the projection below
			res.Rows = rel.rows
		}
	case aggregated:
		if err := execAggregate(s, sel, aggregateCalls(sel.Having, calls), params, &res); err != nil {
			return Result{}, err
		}
	default:
		res.Columns = itemNames(sel.Items)
		e := env{store: s, rel: rel, params: params}
		if len(rel.rows) > 0 {
			res.Rows = make([][]event.Value, len(rel.rows))
		}
		var vals []event.Value
		for i, row := range rel.rows {
			e.row = row
			res.Rows[i] = event.Carve(&vals, len(sel.Items), len(rel.rows)*len(sel.Items))
			for j, it := range sel.Items {
				v, err := e.eval(it.Expr)
				if err != nil {
					return Result{}, err
				}
				res.Rows[i][j] = v
			}
		}
	}

	switch {
	case len(sel.OrderBy) > 0 && !aggregated:
		if err := orderRows(s, sel, rel, params, &res); err != nil {
			return Result{}, err
		}
	case len(sel.OrderBy) > 0:
		if err := orderAggregated(sel, &res); err != nil {
			return Result{}, err
		}
	}
	if sel.Distinct {
		seen := map[string]bool{}
		kept := res.Rows[:0]
		var key, slab []byte
		for _, row := range res.Rows {
			key = key[:0]
			for _, v := range row {
				key = appendKey(key, v)
			}
			if !seen[string(key)] {
				seen[event.SlabString(&slab, key)] = true
				kept = append(kept, row)
			}
		}
		res.Rows = kept
	}
	if sel.Limit >= 0 && len(res.Rows) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	if sel.Star && len(sel.Joins) == 0 {
		// Only here do stored rows reach the caller: copy them.
		var vals []event.Value
		for i, r := range res.Rows {
			res.Rows[i] = event.Carve(&vals, len(r), len(res.Rows)*len(r))
			copy(res.Rows[i], r)
		}
	}
	return res, nil
}

// orderRows sorts the projected rows by keys evaluated against the
// relation's rows (aligned index-wise with the result).
func orderRows(s *store.Store, sel *Select, rel *relation, params event.Bindings, res *Result) error {
	type keyed struct {
		keys []event.Value
		row  []event.Value
	}
	e := env{store: s, rel: rel, params: params}
	items := make([]keyed, len(res.Rows))
	var vals []event.Value
	for i := range res.Rows {
		e.row = rel.rows[i]
		keys := event.Carve(&vals, len(sel.OrderBy), len(res.Rows)*len(sel.OrderBy))
		for ki, k := range sel.OrderBy {
			v, err := e.eval(k.Expr)
			if err != nil {
				return err
			}
			keys[ki] = v
		}
		items[i] = keyed{keys, res.Rows[i]}
	}
	slices.SortStableFunc(items, func(a, b keyed) int {
		for ki, k := range sel.OrderBy {
			if c := orderCompare(a.keys[ki], b.keys[ki], k.Desc); c != 0 {
				return c
			}
		}
		return 0
	})
	for i := range items {
		res.Rows[i] = items[i].row
	}
	return nil
}

// orderAggregated sorts grouped/aggregated results. Keys must reference
// projected columns by name/alias or by 1-based position.
func orderAggregated(sel *Select, res *Result) error {
	positions := make([]int, len(sel.OrderBy))
	for ki, k := range sel.OrderBy {
		pos := -1
		switch x := k.Expr.(type) {
		case *Ref:
			for ci, c := range res.Columns {
				if strings.EqualFold(c, x.Name) {
					pos = ci
					break
				}
			}
		case *Lit:
			if x.V.Kind() == event.KindInt {
				p := int(x.V.Int()) - 1
				if p >= 0 && p < len(res.Columns) {
					pos = p
				}
			}
		case *Call:
			for ci, c := range res.Columns {
				if strings.EqualFold(c, x.Name) {
					pos = ci
					break
				}
			}
		}
		if pos < 0 {
			return fmt.Errorf("sqlmini: ORDER BY over aggregates must name a projected column")
		}
		positions[ki] = pos
	}
	slices.SortStableFunc(res.Rows, func(a, b []event.Value) int {
		for ki, pos := range positions {
			if c := orderCompare(a[pos], b[pos], sel.OrderBy[ki].Desc); c != 0 {
				return c
			}
		}
		return 0
	})
	return nil
}

// orderCompare orders two ORDER BY key values, by their display forms
// where Compare cannot order them.
func orderCompare(a, b event.Value, desc bool) int {
	c, ok := a.Compare(b)
	if !ok {
		c = strings.Compare(a.String(), b.String())
	}
	if desc {
		return -c
	}
	return c
}

// itemNames returns the result columns of a projection.
func itemNames(items []SelectItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = itemName(it, i)
	}
	return names
}

func itemName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if r, ok := it.Expr.(*Ref); ok {
		return r.Name
	}
	if c, ok := it.Expr.(*Call); ok {
		return strings.ToLower(c.Name)
	}
	return fmt.Sprintf("col%d", i+1)
}

// appendKey appends v's row key to b: its kind, then its display form
// (Value.AppendText), length-prefixed. GROUP BY and DISTINCT compare rows
// by their keys, so two values are one key exactly when kind and display
// form agree: NULL, ” and 'null' stay apart, and so do 1 and '1'.
func appendKey(b []byte, v event.Value) []byte {
	b = append(b, byte(v.Kind()), 0, 0, 0, 0)
	n := len(b)
	b = v.AppendText(b)
	binary.BigEndian.PutUint32(b[n-4:n], uint32(len(b)-n))
	return b
}

// aggState folds the rows of an aggregated SELECT into their GROUP BY
// groups as they are read, keeping no rows. Arguments are evaluated on
// every row, of groups HAVING drops too. Group keys are cut from one byte
// slab, and the groups' accumulators from one slot slab.
type aggState struct {
	calls   []*Call // the aggregate calls of the projection and HAVING
	groupBy []string
	keys    []int // groupBy's positions in the relation
	keyErr  error
	index   map[string]int
	key     []byte
	keySlab []byte
	groups  []group
	slots   []aggSlot // the slab groups' aggs are carved from
	arg     env       // the row context aggregate arguments see
}

// group is one GROUP BY group: its first row, its row count and a slot per
// aggregate call.
type group struct {
	first store.Row
	count int64
	aggs  []aggSlot
}

// aggSlot is one aggregate call's accumulator in a group, beside the
// first error the call's argument raised on the group's rows, which
// evalAggregate raises if evaluation reaches the call.
type aggSlot struct {
	acc event.AggAcc
	err error
}

// open prepares the fold over rel's rows. The arguments' subqueries run
// here, so none runs while a store scan holds its table's lock.
func (a *aggState) open(rel *relation) {
	a.arg.rel = rel
	for _, c := range a.calls {
		a.arg.evalSubqueries(c)
	}
	for _, g := range a.groupBy {
		p, err := rel.index(g)
		if err != nil { // raised after the rows, and so after WHERE errors
			a.keyErr, a.keys = fmt.Errorf("sqlmini: GROUP BY: %w", err), nil
			return
		}
		a.keys = append(a.keys, p)
	}
}

// fold adds one row to its group, opening the group at its first row.
func (a *aggState) fold(r store.Row) {
	a.key = a.key[:0] // without GROUP BY, one empty key
	for _, p := range a.keys {
		a.key = appendKey(a.key, r[p])
	}
	g, seen := a.index[string(a.key)]
	if !seen {
		g = len(a.groups)
		a.index[event.SlabString(&a.keySlab, a.key)] = g
		a.addGroup(r)
	}
	grp := &a.groups[g]
	grp.count++
	for i, c := range a.calls {
		slot := &grp.aggs[i]
		if len(c.Args) != 1 || slot.err != nil {
			continue // COUNT(*) reads rows; evalAggregate rejects other arities
		}
		a.arg.row = r
		v, err := a.arg.eval(c.Args[0])
		if err != nil {
			slot.err = err
			continue
		}
		slot.acc.Add(v)
	}
}

// addGroup opens a group. Its slots are carved from a.slots, whose chunks
// hold as many groups as are open, at least 8: a fold of n groups makes
// O(log n) of them.
func (a *aggState) addGroup(first store.Row) {
	slots := event.Carve(&a.slots, len(a.calls), max(len(a.groups), 8)*len(a.calls))
	a.groups = append(a.groups, group{first: first, aggs: slots})
}

// execAggregate evaluates aggregate projections, optionally grouped and
// filtered by HAVING, over groups folded as the rows are read: inside the
// store scan for one table, over the joined relation otherwise. Aggregate
// calls read their group's accumulators, other names its first row (a row
// of nulls for no rows and no GROUP BY).
func execAggregate(s *store.Store, sel *Select, calls []*Call, params event.Bindings, res *Result) error {
	res.Columns = itemNames(sel.Items)
	a := &aggState{calls: calls, groupBy: sel.GroupBy, index: map[string]int{}, arg: env{store: s, params: params}}
	rel, err := buildRelation(s, sel, params, a)
	if err != nil {
		return err
	}
	if a.keyErr != nil {
		return a.keyErr
	}
	if len(a.groups) == 0 && len(a.keys) == 0 {
		a.addGroup(make(store.Row, rel.width()))
	}
	e := env{store: s, rel: rel, agg: a, params: params}
	rows := make([][]event.Value, 0, len(a.groups))
	var vals []event.Value
	for g, grp := range a.groups {
		e.grp, e.row = g, grp.first
		if sel.Having != nil {
			v, err := e.eval(sel.Having)
			if err != nil {
				return err
			}
			if !truthy(v) {
				continue
			}
		}
		out := event.Carve(&vals, len(sel.Items), len(a.groups)*len(sel.Items))
		for i, it := range sel.Items {
			v, err := e.eval(it.Expr)
			if err != nil {
				return err
			}
			out[i] = v
		}
		rows = append(rows, out)
	}
	if len(rows) > 0 {
		res.Rows = rows
	}
	return nil
}
