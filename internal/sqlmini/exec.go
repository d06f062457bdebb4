package sqlmini

import (
	"errors"
	"fmt"
	"sort"
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
func Exec(s *store.Store, sql string, params event.Bindings) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return ExecStmt(s, st, params)
}

// ExecStmt executes a parsed statement.
func ExecStmt(s *store.Store, st Stmt, params event.Bindings) (*Result, error) {
	switch x := st.(type) {
	case *CreateTable:
		if err := s.CreateTable(x.Table, store.Schema(x.Cols)); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *Insert:
		return execInsert(s, x, params)
	case *Update:
		return execUpdate(s, x, params)
	case *Delete:
		return execDelete(s, x, params)
	case *Select:
		return execSelect(s, x, params)
	case *Explain:
		return explain(s, x.Stmt, params)
	}
	return nil, fmt.Errorf("sqlmini: unsupported statement %T", st)
}

// explain renders the execution plan as one row per step.
func explain(s *store.Store, st Stmt, params event.Bindings) (*Result, error) {
	res := &Result{Columns: []string{"step"}}
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
		if p := planMatch(s, tbl, where, params).probe; p.Col != "" {
			add("index probe %s.%s = %s", table, p.Col, p.Val)
			add("filter remaining predicate")
			return
		}
		add("full scan %s (%d rows)", table, tbl.Len())
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
		return nil, fmt.Errorf("sqlmini: cannot explain %T", st)
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

// env resolves identifiers during expression evaluation: first the current
// row's columns, then the named parameters.
type env struct {
	store  *store.Store
	schema store.Schema
	row    store.Row
	params event.Bindings
	funcs  Funcs
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
		res, err := execSelect(e.store, n.Sub, e.params)
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
			found, err = inSubquery(e.store, n.Sub, v, e.params)
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
func inSubquery(s *store.Store, sub *Select, v event.Value, params event.Bindings) (bool, error) {
	if s == nil {
		return false, fmt.Errorf("sqlmini: IN (SELECT ...) requires a data store")
	}
	res, err := execSelect(s, sub, params)
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
		if e.schema != nil {
			// Row contexts (table WHERE scans, UPDATE/DELETE) aggregate
			// only through the SELECT projection path.
			return event.Null, fmt.Errorf("sqlmini: aggregate %s outside SELECT projection", c.Name)
		}
		if err := checkScalarAggregate(c); err != nil {
			return event.Null, err
		}
		v, err := e.eval(c.Args[0])
		if err != nil {
			return event.Null, err
		}
		return foldScalarAggregate(c.Name, v)
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

// checkScalarAggregate validates an aggregate call used as a scalar —
// outside a SELECT projection, in rule conditions and actions, where the
// argument is a list binding collected from a SEQ+ run.
func checkScalarAggregate(c *Call) error {
	if c.Star {
		return fmt.Errorf("sqlmini: %s(*) is only valid in a SELECT projection", c.Name)
	}
	if len(c.Args) != 1 {
		return fmt.Errorf("sqlmini: %s needs exactly one argument", c.Name)
	}
	return nil
}

// foldScalarAggregate folds one already-evaluated value: a list folds
// element-wise, a scalar is a one-element column, null an empty one. The
// semantics (null skipping, int/float widening, comparison families) are
// shared with SELECT aggregation via event.FoldAgg, and the error texts
// match aggregate()'s.
func foldScalarAggregate(name string, v event.Value) (event.Value, error) {
	op, ok := event.AggOpNamed(name)
	if !ok {
		return event.Null, fmt.Errorf("sqlmini: unknown aggregate %s", name)
	}
	res, err := event.FoldAgg(op, v)
	if err != nil {
		var ae *event.AggError
		if errors.As(err, &ae) {
			if ae.Incomparable {
				return event.Null, fmt.Errorf("sqlmini: %s over incomparable values", name)
			}
			return event.Null, fmt.Errorf("sqlmini: %s over non-numeric value %s", name, ae.BadVal)
		}
		return event.Null, fmt.Errorf("sqlmini: %s: %w", name, err)
	}
	return res, nil
}

// applyScalar dispatches a scalar call on already-evaluated arguments.
// User functions are looked up dynamically (they may be registered after
// statements are parsed or prepared) and shadow built-ins, matching
// case-insensitively.
func (e *env) applyScalar(cname string, args []event.Value) (event.Value, error) {
	if e.funcs != nil {
		for name, fn := range e.funcs {
			if strings.EqualFold(name, cname) {
				return fn(args)
			}
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqlmini: %s needs %d argument(s), got %d", cname, n, len(args))
		}
		return nil
	}
	switch strings.ToLower(cname) {
	case "upper":
		if err := need(1); err != nil {
			return event.Null, err
		}
		return event.StringValue(strings.ToUpper(args[0].String())), nil
	case "lower":
		if err := need(1); err != nil {
			return event.Null, err
		}
		return event.StringValue(strings.ToLower(args[0].String())), nil
	case "length":
		if err := need(1); err != nil {
			return event.Null, err
		}
		return event.IntValue(int64(len(args[0].String()))), nil
	case "abs":
		if err := need(1); err != nil {
			return event.Null, err
		}
		switch args[0].Kind() {
		case event.KindInt:
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return event.IntValue(v), nil
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
func execInsert(s *store.Store, ins *Insert, params event.Bindings) (*Result, error) {
	tbl, err := s.Table(ins.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	// Column mapping.
	positions := make([]int, len(ins.Values))
	if len(ins.Cols) > 0 {
		if len(ins.Cols) != len(ins.Values) {
			return nil, fmt.Errorf("sqlmini: %d columns but %d values", len(ins.Cols), len(ins.Values))
		}
		for i, c := range ins.Cols {
			p := schema.Index(c)
			if p < 0 {
				return nil, fmt.Errorf("sqlmini: %s: no such column %s", ins.Table, c)
			}
			positions[i] = p
		}
	} else {
		if len(ins.Values) != len(schema) {
			return nil, fmt.Errorf("sqlmini: %s has %d columns but %d values given", ins.Table, len(schema), len(ins.Values))
		}
		for i := range positions {
			positions[i] = i
		}
	}

	n := 1
	if ins.Bulk {
		n = bulkCardinality(params)
	}
	inserted := 0
	for i := 0; i < n; i++ {
		p := params
		if ins.Bulk {
			p = elementView(params, i)
		}
		ev := &env{store: s, params: p}
		row := make([]event.Value, len(schema))
		for j, ve := range ins.Values {
			v, err := ev.eval(ve)
			if err != nil {
				return nil, err
			}
			row[positions[j]] = v
		}
		if err := tbl.Insert(row); err != nil {
			return nil, err
		}
		inserted++
	}
	return &Result{RowsAffected: inserted}, nil
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

// elementView projects list bindings onto their i'th element.
func elementView(params event.Bindings, i int) event.Bindings {
	out := make(event.Bindings, 0, len(params))
	for _, kv := range params {
		v := kv.Val
		if v.Kind() == event.KindList {
			if i < v.Len() {
				v = v.Elem(i)
			} else {
				v = event.Null
			}
		}
		out = append(out, event.Binding{Var: kv.Var, Val: v})
	}
	return out
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
// EXPLAIN. It probes the index of the first `col = <row-independent expr>`
// conjunct of where's AND tree whose column is indexed and whose value
// the index finds exactly (see probeable); otherwise it scans. Candidates
// are re-checked against the whole WHERE either way.
func planMatch(s *store.Store, tbl *store.Table, where Expr, params event.Bindings) matcher {
	m := matcher{env: env{store: s, schema: tbl.Schema(), params: params}, where: where}
	m.probe = m.findProbe(tbl, where)
	return m
}

func (m *matcher) findProbe(tbl *store.Table, x Expr) store.Probe {
	b, ok := x.(*Binary)
	if !ok {
		return store.Probe{}
	}
	switch b.Op {
	case "AND":
		if p := m.findProbe(tbl, b.L); p.Col != "" {
			return p
		}
		return m.findProbe(tbl, b.R)
	case "=":
		if p := m.probeOn(tbl, b.L, b.R); p.Col != "" {
			return p
		}
		return m.probeOn(tbl, b.R, b.L)
	}
	return store.Probe{}
}

// probeOn plans `colSide = valSide` as a probe. The value side is
// evaluated with the table schema set and no row, so a name that is both a
// column and a parameter resolves to the column, as it does per row, and
// fails: such a conjunct is row-dependent and cannot probe.
func (m *matcher) probeOn(tbl *store.Table, colSide, valSide Expr) store.Probe {
	ref, ok := colSide.(*Ref)
	if !ok {
		return store.Probe{}
	}
	pos := m.env.schema.Index(ref.Name)
	if pos < 0 || !tbl.HasIndex(ref.Name) {
		return store.Probe{}
	}
	v, err := m.env.eval(valSide)
	if err != nil || !probeable(v, m.env.schema[pos].Type) {
		return store.Probe{}
	}
	return store.Probe{Col: ref.Name, Val: v}
}

// probeable reports whether a hash-index probe for v on a column of the
// given kind finds every row that `col = v` or `v = col` matches. The
// index keys rows by display form, and compareValues converts between
// kinds in ways a key cannot follow: `n = '5'` matches the int 5 through
// its display form, and 0.0 equals -0.0 under another key. So v must have
// the column's kind (floats excepted), or convert exactly: int and time
// into each other, 'UC' into time. Null matches nothing and never probes.
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

func execUpdate(s *store.Store, up *Update, params event.Bindings) (*Result, error) {
	tbl, err := s.Table(up.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	type setPos struct {
		pos int
		val Expr
	}
	var sets []setPos
	for _, a := range up.Sets {
		p := schema.Index(a.Col)
		if p < 0 {
			return nil, fmt.Errorf("sqlmini: %s: no such column %s", up.Table, a.Col)
		}
		sets = append(sets, setPos{p, a.Val})
	}
	m := planMatch(s, tbl, up.Where, params)
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
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

func execDelete(s *store.Store, del *Delete, params event.Bindings) (*Result, error) {
	tbl, err := s.Table(del.Table)
	if err != nil {
		return nil, err
	}
	m := planMatch(s, tbl, del.Where, params)
	n, err := tbl.DeleteWhere(m.probe, m.matches)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

// relation is an intermediate query result: qualified columns plus rows.
// Joins concatenate relations column-wise.
type relation struct {
	quals []string // table name or alias per column
	names []string
	rows  [][]event.Value
}

// errNoColumn distinguishes "not a column" (fall back to parameters) from
// genuine resolution errors like ambiguity.
var errNoColumn = fmt.Errorf("sqlmini: no such column")

// index resolves a possibly qualified column reference.
func (r *relation) index(ref string) (int, error) {
	if qual, col, ok := strings.Cut(ref, "."); ok {
		for i := range r.names {
			if strings.EqualFold(r.quals[i], qual) && strings.EqualFold(r.names[i], col) {
				return i, nil
			}
		}
		return -1, fmt.Errorf("sqlmini: no column %s.%s", qual, col)
	}
	found := -1
	for i := range r.names {
		if strings.EqualFold(r.names[i], ref) {
			if found >= 0 {
				return -1, fmt.Errorf("sqlmini: column %s is ambiguous (qualify it)", ref)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, errNoColumn
	}
	return found, nil
}

// relEnv evaluates expressions over a relation row, falling back to named
// parameters for non-column identifiers.
type relEnv struct {
	store  *store.Store
	rel    *relation
	row    []event.Value
	params event.Bindings
}

func (re *relEnv) eval(x Expr) (event.Value, error) {
	if ref, ok := x.(*Ref); ok {
		i, err := re.rel.index(ref.Name)
		if err == nil {
			return re.row[i], nil
		}
		if err != errNoColumn {
			return event.Null, err
		}
		if v, ok := re.params.Get(ref.Name); ok {
			return v, nil
		}
		return event.Null, fmt.Errorf("sqlmini: unknown column or parameter %q", ref.Name)
	}
	// Delegate everything else to the scalar evaluator with a shim
	// schema-free env; nested Refs are intercepted by copying the
	// environment rules here.
	switch n := x.(type) {
	case *Lit:
		return n.V, nil
	case *Unary:
		v, err := re.eval(n.X)
		if err != nil {
			return event.Null, err
		}
		ev := &env{store: re.store, params: re.params}
		return ev.eval(&Unary{Op: n.Op, X: &Lit{V: v}})
	case *Binary:
		switch n.Op {
		case "AND":
			l, err := re.eval(n.L)
			if err != nil {
				return event.Null, err
			}
			if !truthy(l) {
				return event.BoolValue(false), nil
			}
			r, err := re.eval(n.R)
			if err != nil {
				return event.Null, err
			}
			return event.BoolValue(truthy(r)), nil
		case "OR":
			l, err := re.eval(n.L)
			if err != nil {
				return event.Null, err
			}
			if truthy(l) {
				return event.BoolValue(true), nil
			}
			r, err := re.eval(n.R)
			if err != nil {
				return event.Null, err
			}
			return event.BoolValue(truthy(r)), nil
		}
		l, err := re.eval(n.L)
		if err != nil {
			return event.Null, err
		}
		r, err := re.eval(n.R)
		if err != nil {
			return event.Null, err
		}
		switch n.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			return compareValues(n.Op, l, r)
		case "||":
			return event.StringValue(l.String() + r.String()), nil
		default:
			return arith(n.Op, l, r)
		}
	case *Call:
		if n.isAggregate() {
			// Row-context aggregates (a WHERE clause, a non-aggregated
			// projection mix) stay rejected: aggregation over a relation
			// happens only through the dedicated SELECT projection path.
			return event.Null, fmt.Errorf("sqlmini: aggregate %s outside SELECT projection", n.Name)
		}
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			v, err := re.eval(a)
			if err != nil {
				return event.Null, err
			}
			args[i] = &Lit{V: v}
		}
		ev := &env{store: re.store, params: re.params}
		return ev.evalScalarCall(&Call{Name: n.Name, Args: args, Star: n.Star})
	case *Exists:
		ev := &env{store: re.store, params: re.params}
		return ev.eval(n)
	case *InList:
		v, err := re.eval(n.X)
		if err != nil {
			return event.Null, err
		}
		var found bool
		if n.Sub != nil {
			found, err = inSubquery(re.store, n.Sub, v, re.params)
			if err != nil {
				return event.Null, err
			}
		} else {
			for _, le := range n.List {
				lv, err := re.eval(le)
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
		v, err := re.eval(n.X)
		if err != nil {
			return event.Null, err
		}
		isNull := v.IsNull()
		if n.Negate {
			isNull = !isNull
		}
		return event.BoolValue(isNull), nil
	case *Like:
		v, err := re.eval(n.X)
		if err != nil {
			return event.Null, err
		}
		p, err := re.eval(n.Pattern)
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

// tableRelation loads the rows of one table that where (nil: every row)
// matches as a relation, through the match planner.
func tableRelation(s *store.Store, name, alias string, where Expr, params event.Bindings) (*relation, error) {
	tbl, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	qual := alias
	if qual == "" {
		qual = tbl.Name()
	}
	rel := &relation{}
	for _, c := range tbl.Schema() {
		rel.quals = append(rel.quals, qual)
		rel.names = append(rel.names, c.Name)
	}
	m := planMatch(s, tbl, where, params)
	if err := m.matchRows(tbl, func(r store.Row) {
		rel.rows = append(rel.rows, append([]event.Value(nil), r...))
	}); err != nil {
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
	switch n := x.(type) {
	case nil:
		return false
	case *Ref:
		return strings.Contains(n.Name, ".")
	case *Unary:
		return hasQualifiedRef(n.X)
	case *Binary:
		return hasQualifiedRef(n.L) || hasQualifiedRef(n.R)
	case *Call:
		for _, a := range n.Args {
			if hasQualifiedRef(a) {
				return true
			}
		}
	case *InList:
		if hasQualifiedRef(n.X) {
			return true
		}
		for _, a := range n.List {
			if hasQualifiedRef(a) {
				return true
			}
		}
	case *IsNull:
		return hasQualifiedRef(n.X)
	case *Like:
		return hasQualifiedRef(n.X) || hasQualifiedRef(n.Pattern)
	}
	return false
}

// buildRelation evaluates FROM + JOINs + WHERE into one relation.
func buildRelation(s *store.Store, sel *Select, params event.Bindings) (*relation, error) {
	pushed := pushedWhere(sel)
	rel, err := tableRelation(s, sel.Table, sel.Alias, pushed, params)
	if err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		right, err := tableRelation(s, j.Table, j.Alias, nil, params)
		if err != nil {
			return nil, err
		}
		joined := &relation{
			quals: append(append([]string(nil), rel.quals...), right.quals...),
			names: append(append([]string(nil), rel.names...), right.names...),
		}
		re := &relEnv{store: s, rel: joined, params: params}
		for _, lr := range rel.rows {
			for _, rr := range right.rows {
				row := make([]event.Value, 0, len(lr)+len(rr))
				row = append(append(row, lr...), rr...)
				re.row = row
				v, err := re.eval(j.On)
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
		re := &relEnv{store: s, rel: rel, params: params}
		kept := rel.rows[:0]
		for _, row := range rel.rows {
			re.row = row
			v, err := re.eval(sel.Where)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
	}
	return rel, nil
}

func execSelect(s *store.Store, sel *Select, params event.Bindings) (*Result, error) {
	rel, err := buildRelation(s, sel, params)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	aggregated := sel.Having != nil || len(sel.GroupBy) > 0
	if !sel.Star {
		for _, it := range sel.Items {
			if hasAggregate(it.Expr) {
				aggregated = true
				break
			}
		}
	}

	// base tracks the source row behind each result row for ORDER BY.
	var base [][]event.Value
	switch {
	case sel.Star:
		if aggregated {
			return nil, fmt.Errorf("sqlmini: SELECT * with GROUP BY/HAVING is not supported")
		}
		for i := range rel.names {
			name := rel.names[i]
			if len(sel.Joins) > 0 {
				name = rel.quals[i] + "." + name
			}
			res.Columns = append(res.Columns, name)
		}
		res.Rows = rel.rows
		base = rel.rows
	case aggregated:
		if err := execAggregate(s, sel, rel, params, res); err != nil {
			return nil, err
		}
	default:
		for i, it := range sel.Items {
			res.Columns = append(res.Columns, itemName(it, i))
		}
		re := &relEnv{store: s, rel: rel, params: params}
		for _, row := range rel.rows {
			re.row = row
			var out []event.Value
			for _, it := range sel.Items {
				v, err := re.eval(it.Expr)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			res.Rows = append(res.Rows, out)
			base = append(base, row)
		}
	}

	switch {
	case len(sel.OrderBy) > 0 && !aggregated:
		if err := orderRows(s, sel, rel, base, params, res); err != nil {
			return nil, err
		}
	case len(sel.OrderBy) > 0:
		if err := orderAggregated(sel, res); err != nil {
			return nil, err
		}
	}
	if sel.Distinct {
		seen := map[string]bool{}
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			var sb strings.Builder
			for _, v := range row {
				sb.WriteString(store.Format(v))
				sb.WriteByte('\x00')
			}
			k := sb.String()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, row)
			}
		}
		res.Rows = kept
	}
	if sel.Limit >= 0 && len(res.Rows) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	return res, nil
}

// orderRows sorts the projected rows by keys evaluated against the source
// rows (aligned index-wise with the result).
func orderRows(s *store.Store, sel *Select, rel *relation, base [][]event.Value, params event.Bindings, res *Result) error {
	type keyed struct {
		keys []event.Value
		row  []event.Value
	}
	re := &relEnv{store: s, rel: rel, params: params}
	items := make([]keyed, len(res.Rows))
	for i := range res.Rows {
		if i < len(base) {
			re.row = base[i]
		}
		var keys []event.Value
		for _, k := range sel.OrderBy {
			v, err := re.eval(k.Expr)
			if err != nil {
				return err
			}
			keys = append(keys, v)
		}
		items[i] = keyed{keys, res.Rows[i]}
	}
	sort.SliceStable(items, func(a, b int) bool {
		for ki, k := range sel.OrderBy {
			cmp, ok := items[a].keys[ki].Compare(items[b].keys[ki])
			if !ok {
				cmp = strings.Compare(items[a].keys[ki].String(), items[b].keys[ki].String())
			}
			if cmp == 0 {
				continue
			}
			if k.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
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
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for ki, pos := range positions {
			cmp, ok := res.Rows[a][pos].Compare(res.Rows[b][pos])
			if !ok {
				cmp = strings.Compare(res.Rows[a][pos].String(), res.Rows[b][pos].String())
			}
			if cmp == 0 {
				continue
			}
			if sel.OrderBy[ki].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return nil
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

// execAggregate evaluates aggregate projections, optionally grouped and
// filtered by HAVING.
func execAggregate(s *store.Store, sel *Select, rel *relation, params event.Bindings, res *Result) error {
	for i, it := range sel.Items {
		res.Columns = append(res.Columns, itemName(it, i))
	}
	groups := map[string][][]event.Value{}
	var groupOrder []string
	if len(sel.GroupBy) == 0 {
		groups[""] = rel.rows
		groupOrder = []string{""}
	} else {
		var positions []int
		for _, g := range sel.GroupBy {
			p, err := rel.index(g)
			if err != nil {
				return fmt.Errorf("sqlmini: GROUP BY: %w", err)
			}
			positions = append(positions, p)
		}
		for _, r := range rel.rows {
			var sb strings.Builder
			for _, p := range positions {
				sb.WriteString(r[p].String())
				sb.WriteByte('\x00')
			}
			k := sb.String()
			if _, seen := groups[k]; !seen {
				groupOrder = append(groupOrder, k)
			}
			groups[k] = append(groups[k], r)
		}
	}
	for _, k := range groupOrder {
		grows := groups[k]
		if sel.Having != nil {
			v, err := evalWithAggregates(s, sel.Having, rel, grows, params)
			if err != nil {
				return err
			}
			if !truthy(v) {
				continue
			}
		}
		var out []event.Value
		for _, it := range sel.Items {
			v, err := evalWithAggregates(s, it.Expr, rel, grows, params)
			if err != nil {
				return err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return nil
}

// evalWithAggregates evaluates an expression in which aggregate calls
// reduce over the group rows; other refs resolve against the first row.
func evalWithAggregates(s *store.Store, x Expr, rel *relation, rows [][]event.Value, params event.Bindings) (event.Value, error) {
	switch n := x.(type) {
	case *Call:
		if !n.isAggregate() {
			break
		}
		return aggregate(s, n, rel, rows, params)
	case *Binary:
		l, err := evalWithAggregates(s, n.L, rel, rows, params)
		if err != nil {
			return event.Null, err
		}
		r, err := evalWithAggregates(s, n.R, rel, rows, params)
		if err != nil {
			return event.Null, err
		}
		ev := &env{store: s, params: params}
		return ev.evalBinary(&Binary{Op: n.Op, L: &Lit{V: l}, R: &Lit{V: r}})
	case *Unary:
		v, err := evalWithAggregates(s, n.X, rel, rows, params)
		if err != nil {
			return event.Null, err
		}
		ev := &env{store: s, params: params}
		return ev.eval(&Unary{Op: n.Op, X: &Lit{V: v}})
	}
	re := &relEnv{store: s, rel: rel, params: params}
	if len(rows) > 0 {
		re.row = rows[0]
	} else {
		re.row = make([]event.Value, len(rel.names))
	}
	return re.eval(x)
}

func aggregate(s *store.Store, c *Call, rel *relation, rows [][]event.Value, params event.Bindings) (event.Value, error) {
	name := strings.ToLower(c.Name)
	if c.Star {
		if name != "count" {
			return event.Null, fmt.Errorf("sqlmini: %s(*) is not valid", c.Name)
		}
		return event.IntValue(int64(len(rows))), nil
	}
	if len(c.Args) != 1 {
		return event.Null, fmt.Errorf("sqlmini: %s needs exactly one argument", c.Name)
	}
	re := &relEnv{store: s, rel: rel, params: params}
	var vals []event.Value
	for _, r := range rows {
		re.row = r
		v, err := re.eval(c.Args[0])
		if err != nil {
			return event.Null, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch name {
	case "count":
		return event.IntValue(int64(len(vals))), nil
	case "sum", "avg":
		var sum float64
		isFloat := false
		for _, v := range vals {
			switch v.Kind() {
			case event.KindFloat:
				isFloat = true
				sum += v.Float()
			case event.KindInt:
				sum += float64(v.Int())
			case event.KindTime:
				sum += float64(v.Time())
			default:
				return event.Null, fmt.Errorf("sqlmini: %s over non-numeric value %s", c.Name, v)
			}
		}
		if name == "avg" {
			if len(vals) == 0 {
				return event.Null, nil
			}
			return event.FloatValue(sum / float64(len(vals))), nil
		}
		if isFloat {
			return event.FloatValue(sum), nil
		}
		return event.IntValue(int64(sum)), nil
	case "min", "max":
		if len(vals) == 0 {
			return event.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			cmp, ok := v.Compare(best)
			if !ok {
				return event.Null, fmt.Errorf("sqlmini: %s over incomparable values", c.Name)
			}
			if (name == "min" && cmp < 0) || (name == "max" && cmp > 0) {
				best = v
			}
		}
		return best, nil
	}
	return event.Null, fmt.Errorf("sqlmini: unknown aggregate %s", c.Name)
}
