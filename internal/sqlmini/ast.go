// Package sqlmini implements the SQL subset that RFID rule actions and
// conditions are written in (paper §3): CREATE TABLE, INSERT, BULK INSERT
// (which expands list-valued event bindings one row per element, Rule 4),
// UPDATE, DELETE and single-table SELECT with WHERE, GROUP BY, ORDER BY,
// LIMIT and the COUNT/SUM/AVG/MIN/MAX aggregates. Bare identifiers that do
// not name a column of the target table are named parameters resolved from
// the triggering event's bindings.
package sqlmini

import (
	"rcep/internal/core/event"
	"rcep/internal/store"
)

// Stmt is a parsed SQL statement.
type Stmt interface{ isStmt() }

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Table string
	Cols  []store.Column
}

func (*CreateTable) isStmt() {}

// Insert is INSERT INTO t [(cols)] VALUES (exprs). Bulk marks BULK INSERT,
// which expands list-valued parameters into one row per element.
type Insert struct {
	Table  string
	Cols   []string // empty = positional
	Values []Expr
	Bulk   bool
}

func (*Insert) isStmt() {}

// Assign is one SET col = expr clause.
type Assign struct {
	Col string
	Val Expr
}

// Update is UPDATE t SET assigns [WHERE cond].
type Update struct {
	Table string
	Sets  []Assign
	Where Expr // nil = all rows
}

func (*Update) isStmt() {}

// Delete is DELETE FROM t [WHERE cond].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) isStmt() {}

// SelectItem is one projection item.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Join is an INNER JOIN clause.
type Join struct {
	Table string
	Alias string
	On    Expr
}

// Select is SELECT [DISTINCT] items FROM t [AS a] [JOIN t2 ON cond]
// [WHERE] [GROUP BY] [HAVING] [ORDER BY] [LIMIT].
type Select struct {
	Star     bool
	Distinct bool
	Items    []SelectItem
	Table    string
	Alias    string
	Joins    []Join
	Where    Expr
	GroupBy  []string
	Having   Expr
	OrderBy  []OrderKey
	Limit    int // -1 = no limit
}

func (*Select) isStmt() {}

// Explain is EXPLAIN <stmt>: executing it returns one row per plan step
// instead of running the statement.
type Explain struct {
	Stmt Stmt
}

func (*Explain) isStmt() {}

// Expr is a SQL expression.
type Expr interface{ isExpr() }

// Lit is a literal value.
type Lit struct{ V event.Value }

func (*Lit) isExpr() {}

// Ref is a bare identifier: a column of the target table, or a named
// parameter from the event bindings when no such column exists.
type Ref struct{ Name string }

func (*Ref) isExpr() {}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT", "-"
	X  Expr
}

func (*Unary) isExpr() {}

// Binary is a binary operation: AND OR = != <> < <= > >= + - * / % ||.
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) isExpr() {}

// Call is a function call: aggregates (COUNT/SUM/AVG/MIN/MAX) or scalar
// functions (UPPER/LOWER/LENGTH/ABS/COALESCE). Star marks COUNT(*).
type Call struct {
	Name string
	Args []Expr
	Star bool
}

func (*Call) isExpr() {}

// Exists is [NOT] EXISTS (subselect).
type Exists struct {
	Sub    *Select
	Negate bool
}

func (*Exists) isExpr() {}

// InList is x [NOT] IN (e1, e2, ...) or x [NOT] IN (SELECT ...).
type InList struct {
	X      Expr
	List   []Expr
	Sub    *Select // set for subquery form; List is nil then
	Negate bool
}

func (*InList) isExpr() {}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

func (*IsNull) isExpr() {}

// Like is x [NOT] LIKE pattern, with % and _ wildcards.
type Like struct {
	X       Expr
	Pattern Expr
	Negate  bool
}

func (*Like) isExpr() {}

// isAggregate reports whether the call is an aggregate function: COUNT,
// SUM, AVG, MIN or MAX, in any case.
func (c *Call) isAggregate() bool {
	_, ok := event.AggOpNamed(c.Name)
	return ok
}

// aggregateCalls appends to calls the aggregate calls in x, except those
// in another aggregate's argument, a row context where they do not fold.
func aggregateCalls(x Expr, calls []*Call) []*Call {
	walk(x, func(x Expr) bool {
		c, ok := x.(*Call)
		if ok && c.isAggregate() {
			calls = append(calls, c)
			return false
		}
		return true
	})
	return calls
}

// walk calls visit on x, then, unless visit returned false, on each of its
// operands in source order. The statements of subqueries are not walked.
func walk(x Expr, visit func(Expr) bool) {
	if x == nil || !visit(x) {
		return
	}
	switch n := x.(type) {
	case *Unary:
		walk(n.X, visit)
	case *Binary:
		walk(n.L, visit)
		walk(n.R, visit)
	case *Call:
		for _, a := range n.Args {
			walk(a, visit)
		}
	case *InList:
		walk(n.X, visit)
		for _, a := range n.List {
			walk(a, visit)
		}
	case *IsNull:
		walk(n.X, visit)
	case *Like:
		walk(n.X, visit)
		walk(n.Pattern, visit)
	}
}
