// Package lex provides the shared tokenizer for the RFID rule language
// (internal/rules) and the mini-SQL engine (internal/sqlmini). It handles
// identifiers, quoted strings, numbers, punctuation (including two-rune
// operators) and "--" line comments.
package lex

import (
	"fmt"
	"strings"
	"sync"
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

// Token is one lexical unit. Line and Col are 1-based; Col counts bytes,
// so a multi-byte rune earlier on the line moves it by its length.
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
	// Identifiers and keywords are ASCII, so a length mismatch settles it.
	return t.Kind == Ident && len(t.Text) == len(kw) && strings.EqualFold(t.Text, kw)
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

// twoRune reports whether p is a two-rune punctuation token.
func twoRune(p string) bool {
	return p == "<=" || p == ">=" || p == "!=" || p == "<>" || p == "||" || p == "&&"
}

// identByte reports whether c continues an identifier: identifiers are
// ASCII letters, digits and '_', so no byte of a multi-byte rune does.
func identByte(c byte) bool { return c|0x20-'a' < 26 || c-'0' < 10 || c == '_' }

// scan appends src's tokens and a final EOF token to toks, in one pass
// that classifies bytes and decodes a rune only for the punctuation ¬∧∨.
// Col is a byte column: the offset from the line's first byte, plus one.
// Token texts are substrings of src: only a string literal with a doubled
// quote builds its text. On an error it returns the tokens scanned so far.
func scan(toks []Token, src string) ([]Token, error) {
	line, lineStart := 1, 0
	for i := 0; i < len(src); {
		c, start := src[i], i
		tok := Token{Line: line, Col: i - lineStart + 1}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			if c == '\n' {
				line, lineStart = line+1, i+1
			}
			i++
			continue
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case c == '\'' || c == '"':
			tok.Kind = String
			var text []byte // the text before start, once a doubled quote is seen
			for i, start = i+1, i+1; ; i++ {
				if i == len(src) {
					return toks, &Error{Line: tok.Line, Col: tok.Col, Msg: "unterminated string"}
				}
				if src[i] == '\n' {
					line, lineStart = line+1, i+1
				} else if src[i] == c {
					if i+1 == len(src) || src[i+1] != c {
						break
					}
					// Doubled quote is an escaped quote.
					text = append(text, src[start:i+1]...)
					i++
					start = i + 1
				}
			}
			tok.Text = src[start:i]
			if text != nil {
				tok.Text = string(append(text, tok.Text...))
			}
			i++
		case c-'0' < 10:
			tok.Kind = Number
			for i < len(src) && (src[i]-'0' < 10 || src[i] == '.') {
				i++
			}
			tok.Text = src[start:i]
			if strings.Count(tok.Text, ".") > 1 {
				return toks, &Error{Line: tok.Line, Col: tok.Col, Msg: "malformed number " + tok.Text}
			}
		case identByte(c):
			tok.Kind = Ident
			for i < len(src) && identByte(src[i]) {
				i++
			}
			tok.Text = src[start:i]
		default:
			tok.Kind = Punct
			r, size := rune(c), 1
			if c >= utf8.RuneSelf {
				r, size = utf8.DecodeRuneInString(src[i:])
			}
			switch {
			case i+1 < len(src) && twoRune(src[i:i+2]):
				size = 2
			case !strings.ContainsRune("();,=<>*+-/.%!¬∧∨", r):
				return toks, &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			tok.Text = src[i : i+size]
			i += size
		}
		toks = append(toks, tok)
	}
	return append(toks, Token{Kind: EOF, Line: line, Col: len(src) - lineStart + 1}), nil
}

// Stream is a token cursor with one-token lookahead helpers used by the
// recursive-descent parsers. Its tokens live in a pooled buffer: Open
// fills one, Close gives it back.
type Stream struct {
	toks []Token
	pos  int
	buf  *[]Token // the pooled buffer toks was scanned into
}

// maxPooledTokens bounds the buffers the pool keeps: Close drops a buffer
// that grew above it, so one long script does not pin its tokens' room.
const maxPooledTokens = 1024

var tokenPool = sync.Pool{New: func() any { b := make([]Token, 0, 64); return &b }} // 64: a statement's worth

// Open tokenizes src into a pooled buffer and puts the cursor on its first
// token. On an error it keeps no buffer; otherwise Close must follow once
// the parse is done.
func (s *Stream) Open(src string) (err error) {
	s.buf, s.pos = tokenPool.Get().(*[]Token), 0
	if s.toks, err = scan((*s.buf)[:0], src); err != nil {
		s.Close()
	}
	return err
}

// Close returns the token buffer to the pool unless it holds more than
// maxPooledTokens. Tokens copied out of the stream stay valid, since their
// texts point into the source; a slice from Slice does not.
func (s *Stream) Close() {
	if cap(s.toks) <= maxPooledTokens {
		clear(s.toks)
		*s.buf = s.toks[:0]
		tokenPool.Put(s.buf)
	}
	s.toks, s.buf = nil, nil
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
// of an embedded statement for diagnostics. They are the stream's own and
// valid only until Close.
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
