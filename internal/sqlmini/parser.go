package sqlmini

import (
	"strconv"
	"strings"

	"rcep/internal/core/event"
	"rcep/internal/lex"
	"rcep/internal/store"
)

// Parse parses a single SQL statement.
func Parse(sql string) (Stmt, error) {
	s, err := lex.NewStream(sql)
	if err != nil {
		return nil, err
	}
	st, err := parseStmt(s)
	if err != nil {
		return nil, err
	}
	s.Accept(";")
	if !s.AtEOF() {
		return nil, lex.Errorf(s.Peek(), "unexpected trailing input %s", s.Peek())
	}
	return st, nil
}

// ParseStream parses one statement from an existing token stream; used by
// the rules parser to embed SQL actions.
func ParseStream(s *lex.Stream) (Stmt, error) { return parseStmt(s) }

// ParseExprStream parses one expression from an existing token stream;
// used by the rules parser to embed conditions.
func ParseExprStream(s *lex.Stream) (Expr, error) { return parseExpr(s) }

func parseStmt(s *lex.Stream) (Stmt, error) {
	t := s.Peek()
	switch {
	case t.IsKeyword("explain"):
		s.Next()
		inner, err := parseStmt(s)
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner}, nil
	case t.IsKeyword("create"):
		return parseCreateTable(s)
	case t.IsKeyword("insert"):
		s.Next()
		return parseInsert(s, false)
	case t.IsKeyword("bulk"):
		s.Next()
		if _, err := s.ExpectKeyword("insert"); err != nil {
			return nil, err
		}
		return parseInsert(s, true)
	case t.IsKeyword("update"):
		return parseUpdate(s)
	case t.IsKeyword("delete"):
		return parseDelete(s)
	case t.IsKeyword("select"):
		return parseSelect(s)
	}
	return nil, lex.Errorf(t, "expected a SQL statement, found %s", t)
}

func parseCreateTable(s *lex.Stream) (Stmt, error) {
	s.Next() // CREATE
	if _, err := s.ExpectKeyword("table"); err != nil {
		return nil, err
	}
	name, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := s.Expect("("); err != nil {
		return nil, err
	}
	var cols []store.Column
	for {
		cn, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		tn, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		kind, err := columnKind(tn)
		if err != nil {
			return nil, err
		}
		cols = append(cols, store.Column{Name: cn.Text, Type: kind})
		if !s.Accept(",") {
			break
		}
	}
	if _, err := s.Expect(")"); err != nil {
		return nil, err
	}
	return &CreateTable{Table: name.Text, Cols: cols}, nil
}

func columnKind(t lex.Token) (event.Kind, error) {
	switch strings.ToLower(t.Text) {
	case "string", "text", "varchar", "char":
		return event.KindString, nil
	case "int", "integer", "bigint":
		return event.KindInt, nil
	case "float", "real", "double":
		return event.KindFloat, nil
	case "bool", "boolean":
		return event.KindBool, nil
	case "time", "timestamp", "datetime":
		return event.KindTime, nil
	}
	return 0, lex.Errorf(t, "unknown column type %s", t.Text)
}

func parseInsert(s *lex.Stream, bulk bool) (Stmt, error) {
	if _, err := s.ExpectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name.Text, Bulk: bulk}
	if s.Accept("(") {
		for {
			c, err := s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, c.Text)
			if !s.Accept(",") {
				break
			}
		}
		if _, err := s.Expect(")"); err != nil {
			return nil, err
		}
	}
	if _, err := s.ExpectKeyword("values"); err != nil {
		return nil, err
	}
	if _, err := s.Expect("("); err != nil {
		return nil, err
	}
	for {
		e, err := parseExpr(s)
		if err != nil {
			return nil, err
		}
		ins.Values = append(ins.Values, e)
		if !s.Accept(",") {
			break
		}
	}
	if _, err := s.Expect(")"); err != nil {
		return nil, err
	}
	return ins, nil
}

func parseUpdate(s *lex.Stream) (Stmt, error) {
	s.Next() // UPDATE
	name, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := s.ExpectKeyword("set"); err != nil {
		return nil, err
	}
	up := &Update{Table: name.Text}
	for {
		col, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := s.Expect("="); err != nil {
			return nil, err
		}
		val, err := parseExpr(s)
		if err != nil {
			return nil, err
		}
		up.Sets = append(up.Sets, Assign{Col: col.Text, Val: val})
		if !s.Accept(",") {
			break
		}
	}
	if s.AcceptKeyword("where") {
		w, err := parseExpr(s)
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func parseDelete(s *lex.Stream) (Stmt, error) {
	s.Next() // DELETE
	if _, err := s.ExpectKeyword("from"); err != nil {
		return nil, err
	}
	name, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name.Text}
	if s.AcceptKeyword("where") {
		w, err := parseExpr(s)
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func parseSelect(s *lex.Stream) (*Select, error) {
	s.Next() // SELECT
	sel := &Select{Limit: -1}
	if s.AcceptKeyword("distinct") {
		sel.Distinct = true
	}
	if s.Accept("*") {
		sel.Star = true
	} else {
		for {
			e, err := parseExpr(s)
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if s.AcceptKeyword("as") {
				a, err := s.ExpectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = a.Text
			}
			sel.Items = append(sel.Items, item)
			if !s.Accept(",") {
				break
			}
		}
	}
	if _, err := s.ExpectKeyword("from"); err != nil {
		return nil, err
	}
	name, err := s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	sel.Table = name.Text
	if alias, ok := parseAlias(s); ok {
		sel.Alias = alias
	}
	for s.AcceptKeyword("join") || (s.Peek().IsKeyword("inner") && s.PeekAt(1).IsKeyword("join") && acceptTwo(s)) {
		jt, err := s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		j := Join{Table: jt.Text}
		if alias, ok := parseAlias(s); ok {
			j.Alias = alias
		}
		if _, err := s.ExpectKeyword("on"); err != nil {
			return nil, err
		}
		on, err := parseExpr(s)
		if err != nil {
			return nil, err
		}
		j.On = on
		sel.Joins = append(sel.Joins, j)
	}
	if s.AcceptKeyword("where") {
		w, err := parseExpr(s)
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if s.AcceptKeyword("group") {
		if _, err := s.ExpectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			c, err := s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			name := c.Text
			if s.Accept(".") {
				col, err := s.ExpectIdent()
				if err != nil {
					return nil, err
				}
				name += "." + col.Text
			}
			sel.GroupBy = append(sel.GroupBy, name)
			if !s.Accept(",") {
				break
			}
		}
	}
	if s.AcceptKeyword("having") {
		h, err := parseExpr(s)
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if s.AcceptKeyword("order") {
		if _, err := s.ExpectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := parseExpr(s)
			if err != nil {
				return nil, err
			}
			k := OrderKey{Expr: e}
			if s.AcceptKeyword("desc") {
				k.Desc = true
			} else {
				s.AcceptKeyword("asc")
			}
			sel.OrderBy = append(sel.OrderBy, k)
			if !s.Accept(",") {
				break
			}
		}
	}
	if s.AcceptKeyword("limit") {
		t := s.Peek()
		if t.Kind != lex.Number {
			return nil, lex.Errorf(t, "LIMIT needs a number, found %s", t)
		}
		s.Next()
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, lex.Errorf(t, "bad LIMIT %s", t.Text)
		}
		sel.Limit = n
	}
	return sel, nil
}

// parseAlias accepts "[AS] ident" after a table name. Bare identifiers
// that are clause keywords are not aliases.
func parseAlias(s *lex.Stream) (string, bool) {
	if s.AcceptKeyword("as") {
		t, err := s.ExpectIdent()
		if err != nil {
			return "", false
		}
		return t.Text, true
	}
	t := s.Peek()
	if t.Kind != lex.Ident {
		return "", false
	}
	for _, kw := range []string{"join", "inner", "on", "where", "group", "having", "order", "limit"} {
		if t.IsKeyword(kw) {
			return "", false
		}
	}
	s.Next()
	return t.Text, true
}

// acceptTwo consumes two tokens (INNER JOIN) and reports true.
func acceptTwo(s *lex.Stream) bool {
	s.Next()
	s.Next()
	return true
}

// Expression grammar, lowest to highest precedence:
//
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((=|!=|<>|<|<=|>|>=) add | IS [NOT] NULL
//	          | [NOT] IN (list) | [NOT] LIKE add)?
//	add    := mul ((+|-|'||') mul)*
//	mul    := unary ((*|/|%) unary)*
//	unary  := - unary | primary
//	primary:= literal | ident | ident(args) | EXISTS (select) | (or)
func parseExpr(s *lex.Stream) (Expr, error) { return parseOr(s) }

func parseOr(s *lex.Stream) (Expr, error) {
	l, err := parseAnd(s)
	if err != nil {
		return nil, err
	}
	for s.AcceptKeyword("or") {
		r, err := parseAnd(s)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func parseAnd(s *lex.Stream) (Expr, error) {
	l, err := parseNot(s)
	if err != nil {
		return nil, err
	}
	for s.AcceptKeyword("and") {
		r, err := parseNot(s)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func parseNot(s *lex.Stream) (Expr, error) {
	if s.AcceptKeyword("not") {
		// NOT EXISTS is handled here so EXISTS keeps its own node.
		if s.Peek().IsKeyword("exists") {
			e, err := parseNot(s)
			if err != nil {
				return nil, err
			}
			if ex, ok := e.(*Exists); ok {
				ex.Negate = !ex.Negate
				return ex, nil
			}
			return &Unary{Op: "NOT", X: e}, nil
		}
		x, err := parseNot(s)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return parseCmp(s)
}

func parseCmp(s *lex.Stream) (Expr, error) {
	l, err := parseAdd(s)
	if err != nil {
		return nil, err
	}
	t := s.Peek()
	switch {
	case t.Is("=") || t.Is("!=") || t.Is("<>") || t.Is("<") || t.Is("<=") || t.Is(">") || t.Is(">="):
		s.Next()
		r, err := parseAdd(s)
		if err != nil {
			return nil, err
		}
		op := t.Text
		if op == "<>" {
			op = "!="
		}
		return &Binary{Op: op, L: l, R: r}, nil
	case t.IsKeyword("is"):
		s.Next()
		neg := s.AcceptKeyword("not")
		if _, err := s.ExpectKeyword("null"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, nil
	case t.IsKeyword("in"), t.IsKeyword("not"):
		neg := false
		if t.IsKeyword("not") {
			// Only consume NOT when followed by IN or LIKE.
			nxt := s.PeekAt(1)
			if !nxt.IsKeyword("in") && !nxt.IsKeyword("like") {
				return l, nil
			}
			s.Next()
			neg = true
		}
		if s.AcceptKeyword("like") {
			p, err := parseAdd(s)
			if err != nil {
				return nil, err
			}
			return &Like{X: l, Pattern: p, Negate: neg}, nil
		}
		if _, err := s.ExpectKeyword("in"); err != nil {
			return nil, err
		}
		if _, err := s.Expect("("); err != nil {
			return nil, err
		}
		if s.Peek().IsKeyword("select") {
			sub, err := parseSelect(s)
			if err != nil {
				return nil, err
			}
			if _, err := s.Expect(")"); err != nil {
				return nil, err
			}
			return &InList{X: l, Sub: sub, Negate: neg}, nil
		}
		var list []Expr
		for {
			e, err := parseExpr(s)
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !s.Accept(",") {
				break
			}
		}
		if _, err := s.Expect(")"); err != nil {
			return nil, err
		}
		return &InList{X: l, List: list, Negate: neg}, nil
	case t.IsKeyword("like"):
		s.Next()
		p, err := parseAdd(s)
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Pattern: p}, nil
	}
	return l, nil
}

func parseAdd(s *lex.Stream) (Expr, error) {
	l, err := parseMul(s)
	if err != nil {
		return nil, err
	}
	for {
		t := s.Peek()
		if !t.Is("+") && !t.Is("-") && !t.Is("||") {
			return l, nil
		}
		s.Next()
		r, err := parseMul(s)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Text, L: l, R: r}
	}
}

func parseMul(s *lex.Stream) (Expr, error) {
	l, err := parseUnary(s)
	if err != nil {
		return nil, err
	}
	for {
		t := s.Peek()
		if !t.Is("*") && !t.Is("/") && !t.Is("%") {
			return l, nil
		}
		s.Next()
		r, err := parseUnary(s)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Text, L: l, R: r}
	}
}

func parseUnary(s *lex.Stream) (Expr, error) {
	if s.Accept("-") {
		x, err := parseUnary(s)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return parsePrimary(s)
}

func parsePrimary(s *lex.Stream) (Expr, error) {
	t := s.Peek()
	switch {
	case t.Kind == lex.Number:
		s.Next()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, lex.Errorf(t, "bad number %s", t.Text)
			}
			return &Lit{V: event.FloatValue(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, lex.Errorf(t, "bad number %s", t.Text)
		}
		return &Lit{V: event.IntValue(i)}, nil
	case t.Kind == lex.String:
		s.Next()
		return &Lit{V: event.StringValue(t.Text)}, nil
	case t.IsKeyword("true"):
		s.Next()
		return &Lit{V: event.BoolValue(true)}, nil
	case t.IsKeyword("false"):
		s.Next()
		return &Lit{V: event.BoolValue(false)}, nil
	case t.IsKeyword("null"):
		s.Next()
		return &Lit{V: event.Null}, nil
	case t.IsKeyword("exists"):
		s.Next()
		if _, err := s.Expect("("); err != nil {
			return nil, err
		}
		sub, err := parseSelect(s)
		if err != nil {
			return nil, err
		}
		if _, err := s.Expect(")"); err != nil {
			return nil, err
		}
		return &Exists{Sub: sub}, nil
	case t.Kind == lex.Ident:
		s.Next()
		if s.Accept("(") {
			call := &Call{Name: t.Text}
			if s.Accept("*") {
				call.Star = true
			} else if !s.Peek().Is(")") {
				for {
					a, err := parseExpr(s)
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !s.Accept(",") {
						break
					}
				}
			}
			if _, err := s.Expect(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		if s.Accept(".") {
			col, err := s.ExpectIdent()
			if err != nil {
				return nil, err
			}
			return &Ref{Name: t.Text + "." + col.Text}, nil
		}
		return &Ref{Name: t.Text}, nil
	case t.Is("("):
		s.Next()
		e, err := parseExpr(s)
		if err != nil {
			return nil, err
		}
		if _, err := s.Expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, lex.Errorf(t, "expected an expression, found %s", t)
}
