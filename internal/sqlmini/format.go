package sqlmini

import (
	"fmt"
	"strconv"
	"strings"

	"rcep/internal/core/event"
)

// FormatStmt renders a statement back into canonical SQL text. The output
// re-parses to an equivalent statement (round-trip tested).
func FormatStmt(st Stmt) string {
	switch x := st.(type) {
	case *CreateTable:
		cols := make([]string, len(x.Cols))
		for i, c := range x.Cols {
			cols[i] = c.Name + " " + strings.ToUpper(kindSQLName(c.Type))
		}
		return fmt.Sprintf("CREATE TABLE %s (%s)", x.Table, strings.Join(cols, ", "))
	case *Insert:
		kw := "INSERT"
		if x.Bulk {
			kw = "BULK INSERT"
		}
		cols := ""
		if len(x.Cols) > 0 {
			cols = " (" + strings.Join(x.Cols, ", ") + ")"
		}
		vals := make([]string, len(x.Values))
		for i, v := range x.Values {
			vals[i] = FormatExpr(v)
		}
		return fmt.Sprintf("%s INTO %s%s VALUES (%s)", kw, x.Table, cols, strings.Join(vals, ", "))
	case *Update:
		sets := make([]string, len(x.Sets))
		for i, a := range x.Sets {
			sets[i] = a.Col + " = " + FormatExpr(a.Val)
		}
		out := fmt.Sprintf("UPDATE %s SET %s", x.Table, strings.Join(sets, ", "))
		if x.Where != nil {
			out += " WHERE " + FormatExpr(x.Where)
		}
		return out
	case *Delete:
		out := "DELETE FROM " + x.Table
		if x.Where != nil {
			out += " WHERE " + FormatExpr(x.Where)
		}
		return out
	case *Select:
		return formatSelect(x)
	case *Explain:
		return "EXPLAIN " + FormatStmt(x.Stmt)
	}
	return fmt.Sprintf("/* unformattable %T */", st)
}

func kindSQLName(k event.Kind) string {
	switch k {
	case event.KindString:
		return "STRING"
	case event.KindInt:
		return "INT"
	case event.KindFloat:
		return "FLOAT"
	case event.KindBool:
		return "BOOL"
	case event.KindTime:
		return "TIME"
	}
	return "STRING"
}

func formatSelect(x *Select) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if x.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if x.Star {
		sb.WriteString("*")
	} else {
		items := make([]string, len(x.Items))
		for i, it := range x.Items {
			items[i] = FormatExpr(it.Expr)
			if it.Alias != "" {
				items[i] += " AS " + it.Alias
			}
		}
		sb.WriteString(strings.Join(items, ", "))
	}
	sb.WriteString(" FROM " + x.Table)
	if x.Alias != "" {
		sb.WriteString(" AS " + x.Alias)
	}
	for _, j := range x.Joins {
		sb.WriteString(" JOIN " + j.Table)
		if j.Alias != "" {
			sb.WriteString(" AS " + j.Alias)
		}
		sb.WriteString(" ON " + FormatExpr(j.On))
	}
	if x.Where != nil {
		sb.WriteString(" WHERE " + FormatExpr(x.Where))
	}
	if len(x.GroupBy) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(x.GroupBy, ", "))
	}
	if x.Having != nil {
		sb.WriteString(" HAVING " + FormatExpr(x.Having))
	}
	if len(x.OrderBy) > 0 {
		keys := make([]string, len(x.OrderBy))
		for i, k := range x.OrderBy {
			keys[i] = FormatExpr(k.Expr)
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if x.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", x.Limit)
	}
	return sb.String()
}

// FormatExpr renders an expression back into SQL text.
func FormatExpr(x Expr) string {
	switch n := x.(type) {
	case *Lit:
		return formatLit(n.V)
	case *Ref:
		return n.Name
	case *Unary:
		if n.Op == "NOT" {
			return "NOT " + FormatExpr(n.X)
		}
		s := FormatExpr(n.X)
		if s[0] == '-' { // "--" would open a comment
			s = "(" + s + ")"
		}
		return n.Op + s
	case *Binary:
		return "(" + FormatExpr(n.L) + " " + n.Op + " " + FormatExpr(n.R) + ")"
	case *Call:
		if n.Star {
			return n.Name + "(*)"
		}
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = FormatExpr(a)
		}
		return n.Name + "(" + strings.Join(args, ", ") + ")"
	case *Exists:
		kw := "EXISTS"
		if n.Negate {
			kw = "NOT EXISTS"
		}
		return kw + " (" + formatSelect(n.Sub) + ")"
	case *InList:
		kw := " IN "
		if n.Negate {
			kw = " NOT IN "
		}
		if n.Sub != nil {
			return FormatExpr(n.X) + kw + "(" + formatSelect(n.Sub) + ")"
		}
		elems := make([]string, len(n.List))
		for i, e := range n.List {
			elems[i] = FormatExpr(e)
		}
		return FormatExpr(n.X) + kw + "(" + strings.Join(elems, ", ") + ")"
	case *IsNull:
		if n.Negate {
			return FormatExpr(n.X) + " IS NOT NULL"
		}
		return FormatExpr(n.X) + " IS NULL"
	case *Like:
		kw := " LIKE "
		if n.Negate {
			kw = " NOT LIKE "
		}
		return FormatExpr(n.X) + kw + FormatExpr(n.Pattern)
	}
	return fmt.Sprintf("/* unformattable %T */", x)
}

func formatLit(v event.Value) string {
	switch v.Kind() {
	case event.KindNull:
		return "NULL"
	case event.KindString:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	case event.KindBool:
		if v.Bool() {
			return "true"
		}
		return "false"
	case event.KindFloat: // digits and a point, the form the lexer reads as a float
		s := strconv.FormatFloat(v.Float(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}
