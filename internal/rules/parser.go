package rules

import (
	"fmt"
	"strings"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/lex"
	"rcep/internal/sqlmini"
)

// ParseScript parses a rule script: any number of DEFINE and CREATE RULE
// statements.
func ParseScript(src string) (*RuleSet, error) {
	var stream lex.Stream
	if err := stream.Open(src); err != nil {
		return nil, err
	}
	defer stream.Close()
	s, rs := &stream, &RuleSet{Defs: map[string]event.Expr{}}
	p := &parser{s: s, rs: rs} // return rs, not p.rs, so that the stream stays on the stack
	for !s.AtEOF() {
		t := s.Peek()
		switch {
		case t.IsKeyword("define"):
			if err := p.parseDefine(); err != nil {
				return nil, err
			}
		case t.IsKeyword("create"):
			if err := p.parseRule(); err != nil {
				return nil, err
			}
		case t.Is(";"):
			s.Next()
		default:
			return nil, lex.Errorf(t, "expected DEFINE or CREATE RULE, found %s", t)
		}
	}
	return rs, nil
}

type parser struct {
	s  *lex.Stream
	rs *RuleSet
}

// parseDefine handles: DEFINE name = event_specification
func (p *parser) parseDefine() error {
	p.s.Next() // DEFINE
	name, err := p.s.ExpectIdent()
	if err != nil {
		return err
	}
	if _, err := p.s.Expect("="); err != nil {
		return err
	}
	if _, dup := p.rs.Defs[name.Text]; dup {
		return lex.Errorf(name, "event %s already defined", name.Text)
	}
	e, err := p.parseEvent()
	if err != nil {
		return err
	}
	p.rs.Defs[name.Text] = e
	return nil
}

// parseRule handles:
//
//	CREATE RULE rule_id, rule_name ON event IF condition DO actions
func (p *parser) parseRule() error {
	p.s.Next() // CREATE
	if _, err := p.s.ExpectKeyword("rule"); err != nil {
		return err
	}
	id, err := p.s.ExpectIdent()
	if err != nil {
		return err
	}
	for _, r := range p.rs.Rules {
		if r.ID == id.Text {
			return lex.Errorf(id, "duplicate rule ID %s", id.Text)
		}
	}
	rule := &Rule{ID: id.Text}
	if p.s.Accept(",") {
		// The name is either a string literal or a run of identifiers up
		// to the ON keyword ("duplicate detection rule" in the paper is
		// unquoted).
		if p.s.Peek().Kind == lex.String {
			rule.Name = p.s.Next().Text
		} else {
			var words []string
			for {
				t := p.s.Peek()
				if t.IsKeyword("on") || (t.Kind != lex.Ident && t.Kind != lex.Number) {
					break
				}
				words = append(words, p.s.Next().Text)
			}
			rule.Name = strings.Join(words, " ")
		}
	}
	if rule.Name == "" {
		rule.Name = rule.ID
	}
	if _, err := p.s.ExpectKeyword("on"); err != nil {
		return err
	}
	rule.Event, err = p.parseEvent()
	if err != nil {
		return err
	}
	if _, err := p.s.ExpectKeyword("if"); err != nil {
		return err
	}
	cond, err := sqlmini.ParseExprStream(p.s)
	if err != nil {
		return err
	}
	if lit, ok := cond.(*sqlmini.Lit); !ok || !(lit.V.Kind() == event.KindBool && lit.V.Bool()) {
		rule.Cond = cond
	}
	if _, err := p.s.ExpectKeyword("do"); err != nil {
		return err
	}
	for {
		a, err := p.parseAction()
		if err != nil {
			return err
		}
		rule.Actions = append(rule.Actions, a)
		if !p.s.Accept(";") {
			break
		}
		// A trailing semicolon before the next statement or EOF is fine.
		t := p.s.Peek()
		if t.Kind == lex.EOF || t.IsKeyword("define") ||
			(t.IsKeyword("create") && p.s.PeekAt(1).IsKeyword("rule")) {
			break
		}
	}
	p.rs.Rules = append(p.rs.Rules, rule)
	return nil
}

// parseAction parses one DO entry: a mini-SQL statement or a user
// procedure call such as send_alarm(o4) or send_alarm.
func (p *parser) parseAction() (Action, error) {
	t := p.s.Peek()
	start := p.s.Pos()
	isSQL := t.IsKeyword("insert") || t.IsKeyword("bulk") || t.IsKeyword("update") ||
		t.IsKeyword("delete") || t.IsKeyword("select") ||
		(t.IsKeyword("create") && p.s.PeekAt(1).IsKeyword("table"))
	if isSQL {
		st, err := sqlmini.ParseStream(p.s)
		if err != nil {
			return nil, err
		}
		return &SQLAction{Stmt: st, Text: lex.JoinText(p.s.Slice(start, p.s.Pos()))}, nil
	}
	if t.Kind != lex.Ident {
		return nil, lex.Errorf(t, "expected an action (SQL statement or procedure call), found %s", t)
	}
	name := p.s.Next()
	act := &ProcAction{Name: name.Text}
	if p.s.Accept("(") {
		if !p.s.Peek().Is(")") {
			for {
				a, err := sqlmini.ParseExprStream(p.s)
				if err != nil {
					return nil, err
				}
				act.Args = append(act.Args, a)
				if !p.s.Accept(",") {
					break
				}
			}
		}
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
	}
	act.Text = lex.JoinText(p.s.Slice(start, p.s.Pos()))
	return act, nil
}

// Event expression grammar (precedence low → high):
//
//	seq   := or (';' or)*                    -- infix sequence
//	or    := and ((OR|∨) and)*
//	and   := not ((AND|∧) not)*
//	not   := (NOT|¬|!) not | primary
//	prim  := '(' seq ')' | SEQ(...) | SEQ+(...) | TSEQ(...) | TSEQ+(...)
//	       | WITHIN(...) | observation(...) preds | alias
func (p *parser) parseEvent() (event.Expr, error) { return p.parseSeqInfix() }

func (p *parser) parseSeqInfix() (event.Expr, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	for p.s.Accept(";") {
		r, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		l = &event.Seq{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseOr() (event.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.s.Peek().IsKeyword("or") || p.s.Peek().Is("∨") {
		p.s.Next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &event.Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (event.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.s.Peek().IsKeyword("and") || p.s.Peek().Is("∧") {
		p.s.Next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &event.And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (event.Expr, error) {
	t := p.s.Peek()
	if t.IsKeyword("not") || t.Is("¬") || t.Is("!") {
		p.s.Next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		n := &event.Not{X: x}
		// Postfix window: `NOT E WITHIN w` scopes the negation to its own
		// window anchored at the adjacent positive constituent. There is
		// no clash with the prefix form — WITHIN(E, w) is always followed
		// by '(', the postfix window always by a number.
		if p.s.Peek().IsKeyword("within") && p.s.PeekAt(1).Kind == lex.Number {
			wt := p.s.Next()
			d, err := p.parseDuration()
			if err != nil {
				return nil, err
			}
			if d <= 0 {
				return nil, lex.Errorf(wt, "negation window must be positive")
			}
			n.Win = d
		}
		return n, nil
	}
	return p.parsePrimaryEvent()
}

// parsePrimaryEvent parses a base event expression followed by any number
// of `WHERE <guard>` suffixes. A guard binds to the tightest preceding
// event; it greedily consumes AND/OR, so a guarded constituent inside a
// conjunction needs parentheses: (a WHERE x > 1) AND b.
func (p *parser) parsePrimaryEvent() (event.Expr, error) {
	e, err := p.parseBasePrimary()
	if err != nil {
		return nil, err
	}
	for p.s.Peek().IsKeyword("where") {
		p.s.Next()
		g, err := p.parseGuard()
		if err != nil {
			return nil, err
		}
		e = &event.Guarded{X: e, Cond: g}
	}
	return e, nil
}

func (p *parser) parseBasePrimary() (event.Expr, error) {
	t := p.s.Peek()
	switch {
	case t.Is("("):
		p.s.Next()
		e, err := p.parseSeqInfix()
		if err != nil {
			return nil, err
		}
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.IsKeyword("seq"):
		p.s.Next()
		plus := p.s.Accept("+")
		if _, err := p.s.Expect("("); err != nil {
			return nil, err
		}
		if plus {
			x, err := p.parseSeqInfix()
			if err != nil {
				return nil, err
			}
			if _, err := p.s.Expect(")"); err != nil {
				return nil, err
			}
			return &event.SeqPlus{X: x}, nil
		}
		l, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.s.Expect(";"); err != nil {
			return nil, err
		}
		r, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
		return &event.Seq{L: l, R: r}, nil
	case t.IsKeyword("tseq"):
		p.s.Next()
		plus := p.s.Accept("+")
		if _, err := p.s.Expect("("); err != nil {
			return nil, err
		}
		if plus {
			x, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			lo, hi, err := p.parseTwoDurations()
			if err != nil {
				return nil, err
			}
			if _, err := p.s.Expect(")"); err != nil {
				return nil, err
			}
			return &event.TSeqPlus{X: x, Lo: lo, Hi: hi}, nil
		}
		l, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.s.Expect(";"); err != nil {
			return nil, err
		}
		r, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		lo, hi, err := p.parseTwoDurations()
		if err != nil {
			return nil, err
		}
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
		return &event.TSeq{L: l, R: r, Lo: lo, Hi: hi}, nil
	case t.IsKeyword("within"):
		p.s.Next()
		if _, err := p.s.Expect("("); err != nil {
			return nil, err
		}
		x, err := p.parseSeqInfix()
		if err != nil {
			return nil, err
		}
		if _, err := p.s.Expect(","); err != nil {
			return nil, err
		}
		d, err := p.parseDuration()
		if err != nil {
			return nil, err
		}
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
		return &event.Within{X: x, Max: d}, nil
	case t.IsKeyword("all"), t.IsKeyword("any"):
		// Paper §2.2: ALL(E1, ..., En) ≡ E1 ∧ ... ∧ En. ANY is the OR
		// dual. Both desugar to left-nested binary constructors.
		isAll := t.IsKeyword("all")
		p.s.Next()
		if _, err := p.s.Expect("("); err != nil {
			return nil, err
		}
		var parts []event.Expr
		for {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
			if !p.s.Accept(",") {
				break
			}
		}
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
		if len(parts) < 2 {
			return nil, lex.Errorf(t, "%s needs at least two constituents", strings.ToUpper(t.Text))
		}
		out := parts[0]
		for _, e := range parts[1:] {
			if isAll {
				out = &event.And{L: out, R: e}
			} else {
				out = &event.Or{L: out, R: e}
			}
		}
		return out, nil
	case t.IsKeyword("observation"):
		return p.parseObservation()
	case t.Kind == lex.Ident:
		p.s.Next()
		e, ok := p.rs.Defs[t.Text]
		if !ok {
			return nil, lex.Errorf(t, "undefined event %s (missing DEFINE?)", t.Text)
		}
		return e, nil
	}
	return nil, lex.Errorf(t, "expected an event expression, found %s", t)
}

// parseObservation handles observation(r, o, t) followed by optional
// ", pred" attribute predicates such as type(o) = 'laptop'.
func (p *parser) parseObservation() (event.Expr, error) {
	p.s.Next() // observation
	if _, err := p.s.Expect("("); err != nil {
		return nil, err
	}
	reader, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if _, err := p.s.Expect(","); err != nil {
		return nil, err
	}
	object, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if _, err := p.s.Expect(","); err != nil {
		return nil, err
	}
	at, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if _, err := p.s.Expect(")"); err != nil {
		return nil, err
	}
	prim := &event.Prim{Reader: reader, Object: object, At: at}
	// Attribute predicates: only consume ", X" when X looks like a
	// predicate (fn(var) op ... or var op ...), since a comma may also
	// separate the enclosing constructor's arguments.
	for p.s.Peek().Is(",") && p.looksLikePred() {
		p.s.Next() // ','
		pred, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		prim.Preds = append(prim.Preds, *pred)
	}
	return prim, nil
}

// looksLikePred peeks past the comma for `ident ( ident ) cmp` or
// `ident cmp`.
func (p *parser) looksLikePred() bool {
	if p.s.PeekAt(1).Kind != lex.Ident {
		return false
	}
	isCmp := func(t lex.Token) bool {
		return t.Is("=") || t.Is("!=") || t.Is("<>") || t.Is("<") || t.Is("<=") || t.Is(">") || t.Is(">=")
	}
	if p.s.PeekAt(2).Is("(") {
		return p.s.PeekAt(3).Kind == lex.Ident && p.s.PeekAt(4).Is(")") && isCmp(p.s.PeekAt(5))
	}
	return isCmp(p.s.PeekAt(2))
}

func (p *parser) parsePred() (*event.Pred, error) {
	name, err := p.s.ExpectIdent()
	if err != nil {
		return nil, err
	}
	pred := &event.Pred{}
	if p.s.Accept("(") {
		fn := strings.ToLower(name.Text)
		if fn != "group" && fn != "type" {
			return nil, lex.Errorf(name, "unknown event attribute function %s (want group or type)", name.Text)
		}
		pred.Fn = fn
		arg, err := p.s.ExpectIdent()
		if err != nil {
			return nil, err
		}
		pred.Arg = arg.Text
		if _, err := p.s.Expect(")"); err != nil {
			return nil, err
		}
	} else {
		pred.Arg = name.Text
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return nil, err
	}
	pred.Op = op
	v := p.s.Peek()
	switch v.Kind {
	case lex.String, lex.Number, lex.Ident:
		p.s.Next()
		pred.Val = v.Text
	default:
		return nil, lex.Errorf(v, "expected a predicate value, found %s", v)
	}
	return pred, nil
}

func (p *parser) parseCmpOp() (event.CmpOp, error) {
	t := p.s.Next()
	switch t.Text {
	case "=":
		return event.CmpEq, nil
	case "!=", "<>":
		return event.CmpNe, nil
	case "<":
		return event.CmpLt, nil
	case "<=":
		return event.CmpLe, nil
	case ">":
		return event.CmpGt, nil
	case ">=":
		return event.CmpGe, nil
	}
	return 0, lex.Errorf(t, "expected a comparison operator, found %s", t)
}

// parseTerm parses one observation argument: a quoted literal, a variable,
// or '_' for an anonymous (unconstrained, unbound) position.
func (p *parser) parseTerm() (event.Term, error) {
	t := p.s.Peek()
	switch {
	case t.Kind == lex.String:
		p.s.Next()
		return event.Term{Lit: t.Text}, nil
	case t.Kind == lex.Ident:
		p.s.Next()
		if t.Text == "_" {
			return event.Term{}, nil
		}
		return event.Term{Var: t.Text}, nil
	}
	return event.Term{}, lex.Errorf(t, "expected a variable or quoted literal, found %s", t)
}

// parseTwoDurations parses ", d1, d2" inside TSEQ/TSEQ+.
func (p *parser) parseTwoDurations() (time.Duration, time.Duration, error) {
	if _, err := p.s.Expect(","); err != nil {
		return 0, 0, err
	}
	lo, err := p.parseDuration()
	if err != nil {
		return 0, 0, err
	}
	if _, err := p.s.Expect(","); err != nil {
		return 0, 0, err
	}
	hi, err := p.parseDuration()
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// parseDuration parses forms like 5sec, 0.1 sec, 10min, 100msec (the lexer
// splits the number from the unit).
func (p *parser) parseDuration() (time.Duration, error) {
	t := p.s.Peek()
	if t.Kind != lex.Number {
		return 0, lex.Errorf(t, "expected a duration, found %s", t)
	}
	p.s.Next()
	text := t.Text
	if u := p.s.Peek(); u.Kind == lex.Ident {
		p.s.Next()
		text += u.Text
	}
	d, err := event.ParseDuration(text)
	if err != nil {
		return 0, fmt.Errorf("line %d:%d: %v", t.Line, t.Col, err)
	}
	return d, nil
}
