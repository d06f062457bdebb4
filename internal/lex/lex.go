// Package lex provides the shared tokenizer for the RFID rule language
// (internal/rules) and the mini-SQL engine (internal/sqlmini). It handles
// identifiers, quoted strings, numbers, punctuation (including two-rune
// operators) and "--" line comments.
package lex

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Number
	String
	Punct
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "identifier"
	case Number:
		return "number"
	case String:
		return "string"
	case Punct:
		return "punctuation"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Token is one lexical unit. Line and Col are 1-based.
type Token struct {
	Kind Kind
	Text string // identifier text, unquoted string value, number, or punct
	Line int
	Col  int
}

// Is reports whether the token is the given punctuation.
func (t Token) Is(punct string) bool { return t.Kind == Punct && t.Text == punct }

// IsKeyword reports whether the token is the given keyword,
// case-insensitively.
func (t Token) IsKeyword(kw string) bool {
	return t.Kind == Ident && strings.EqualFold(t.Text, kw)
}

// String implements fmt.Stringer.
func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case String:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// Error is a lexical or syntax error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg) }

// Errorf builds a positioned error at the token.
func Errorf(t Token, format string, args ...any) error {
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// twoRune lists the recognized two-rune punctuation tokens.
var twoRune = map[string]bool{
	"<=": true, ">=": true, "!=": true, "<>": true, "||": true, "&&": true,
}

// Tokenize splits src into tokens, appending a final EOF token. The token
// slice is sized once, for a token per two bytes of src (only runs of
// one-byte tokens are denser), and token texts are substrings of src:
// only a string literal with a doubled quote builds its text.
func Tokenize(src string) ([]Token, error) {
	toks := make([]Token, 0, len(src)/2+2)
	line, col := 1, 1
	i := 0
	advance := func(n int) {
		for k := 0; k < n; k++ {
			if src[i+k] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += n
	}
	for i < len(src) {
		c := src[i]
		r, size := utf8.DecodeRuneInString(src[i:])
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				advance(1)
			}
		case c == '\'' || c == '"':
			tok := Token{Kind: String, Line: line, Col: col}
			quote := c
			advance(1)
			start := i
			var text []byte // the text before start, once a doubled quote is seen
			closed := false
			for i < len(src) {
				if src[i] == quote {
					// Doubled quote is an escaped quote.
					if i+1 < len(src) && src[i+1] == quote {
						text = append(text, src[start:i+1]...)
						advance(2)
						start = i
						continue
					}
					closed = true
					break
				}
				advance(1)
			}
			if !closed {
				return nil, &Error{Line: tok.Line, Col: tok.Col, Msg: "unterminated string"}
			}
			tok.Text = src[start:i]
			if text != nil {
				tok.Text = string(append(text, tok.Text...))
			}
			advance(1)
			toks = append(toks, tok)
		case c >= '0' && c <= '9':
			tok := Token{Kind: Number, Line: line, Col: col}
			start := i
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				advance(1)
			}
			tok.Text = src[start:i]
			if strings.Count(tok.Text, ".") > 1 {
				return nil, &Error{Line: tok.Line, Col: tok.Col, Msg: "malformed number " + tok.Text}
			}
			toks = append(toks, tok)
		case c < utf8.RuneSelf && isIdentStart(r):
			tok := Token{Kind: Ident, Line: line, Col: col}
			start := i
			for i < len(src) {
				r2, size := utf8.DecodeRuneInString(src[i:])
				if r2 >= utf8.RuneSelf || !isIdentPart(r2) {
					break
				}
				advance(size)
			}
			tok.Text = src[start:i]
			toks = append(toks, tok)
		default:
			tok := Token{Kind: Punct, Line: line, Col: col}
			if i+1 < len(src) && twoRune[src[i:i+2]] {
				size = 2
			} else if !strings.ContainsRune("();,=<>*+-/.%!", r) && !strings.ContainsRune("¬∧∨", r) {
				return nil, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			tok.Text = src[i : i+size]
			advance(size)
			toks = append(toks, tok)
		}
	}
	toks = append(toks, Token{Kind: EOF, Line: line, Col: col})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Stream is a token cursor with one-token lookahead helpers used by the
// recursive-descent parsers.
type Stream struct {
	toks []Token
	pos  int
}

// NewStream tokenizes src and returns a cursor over it.
func NewStream(src string) (*Stream, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Stream{toks: toks}, nil
}

// Peek returns the current token without consuming it.
func (s *Stream) Peek() Token { return s.toks[s.pos] }

// PeekAt returns the token n positions ahead.
func (s *Stream) PeekAt(n int) Token {
	p := s.pos + n
	if p >= len(s.toks) {
		p = len(s.toks) - 1
	}
	return s.toks[p]
}

// Next consumes and returns the current token.
func (s *Stream) Next() Token {
	t := s.toks[s.pos]
	if s.pos < len(s.toks)-1 {
		s.pos++
	}
	return t
}

// AtEOF reports whether the stream is exhausted.
func (s *Stream) AtEOF() bool { return s.Peek().Kind == EOF }

// Pos returns the cursor position, usable with Slice.
func (s *Stream) Pos() int { return s.pos }

// Slice returns the tokens in [from, to), e.g. to recover the source text
// of an embedded statement for diagnostics.
func (s *Stream) Slice(from, to int) []Token { return s.toks[from:to] }

// JoinText renders a token slice back into approximate source text.
func JoinText(toks []Token) string {
	var sb strings.Builder
	for i, t := range toks {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if t.Kind == String {
			sb.WriteByte('\'')
			sb.WriteString(strings.ReplaceAll(t.Text, "'", "''"))
			sb.WriteByte('\'')
		} else {
			sb.WriteString(t.Text)
		}
	}
	return sb.String()
}

// Accept consumes the current token when it is the given punctuation.
func (s *Stream) Accept(punct string) bool {
	if s.Peek().Is(punct) {
		s.Next()
		return true
	}
	return false
}

// AcceptKeyword consumes the current token when it matches the keyword.
func (s *Stream) AcceptKeyword(kw string) bool {
	if s.Peek().IsKeyword(kw) {
		s.Next()
		return true
	}
	return false
}

// Expect consumes the given punctuation or fails.
func (s *Stream) Expect(punct string) (Token, error) {
	t := s.Peek()
	if !t.Is(punct) {
		return t, Errorf(t, "expected %q, found %s", punct, t)
	}
	return s.Next(), nil
}

// ExpectKeyword consumes the given keyword or fails.
func (s *Stream) ExpectKeyword(kw string) (Token, error) {
	t := s.Peek()
	if !t.IsKeyword(kw) {
		return t, Errorf(t, "expected %s, found %s", strings.ToUpper(kw), t)
	}
	return s.Next(), nil
}

// ExpectIdent consumes an identifier or fails.
func (s *Stream) ExpectIdent() (Token, error) {
	t := s.Peek()
	if t.Kind != Ident {
		return t, Errorf(t, "expected identifier, found %s", t)
	}
	return s.Next(), nil
}
