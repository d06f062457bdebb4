package lex

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzTokenize: the pooled scanner must never panic or loop, must return
// the reference's tokens (kind, text, line, col) or its error, and every token
// must carry sane positions. Run with `go test -fuzz FuzzTokenize` for a
// real fuzzing session; the seed corpus runs as part of the normal suite.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"",
		"CREATE RULE r4, containment rule",
		"observation('r1', o, t), type(o) = 'laptop'",
		"TSEQ+(E1, 0.1sec, 1sec)",
		"a <= b >= c != d <> e || f",
		"E1 ∧ ¬E2 ∨ E3",
		"'unterminated",
		"1.2.3",
		"-- comment\nx",
		"'it''s'",
		`'''' ''x'' 'a''''b' "q""q" 'mix"ed' ''`,
		"'multi\nline' x 'open''",
		"-- it's\na b c d 'x' -- \"\n-",
		"5sec 0.1sec t1x 1.5.x _a9",
		"a.b=c;d,e(f)*g+h-i/j%k!l<m>n",
		"\x00\xff\xfe",
		"𝛼𝛽𝛾",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var s Stream
		err := s.Open(src)
		want, wantErr := refTokenize(src)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			return
		}
		defer s.Close() // the next input scans into this buffer
		toks := s.toks
		if len(toks) != len(want) {
			t.Fatalf("%d tokens, reference %d:\n%v\n%v", len(toks), len(want), toks, want)
		}
		for i := range toks {
			if toks[i] != want[i] {
				t.Fatalf("token %d = %+v, reference %+v", i, toks[i], want[i])
			}
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
			t.Fatalf("missing EOF token: %v", toks)
		}
		for _, tok := range toks {
			if tok.Line < 1 || tok.Col < 1 {
				t.Fatalf("bad position: %+v", tok)
			}
		}
	})
}

// refTokenize is the tokenizer as it was before token texts became
// substrings of the source and bytes were classified directly: it decodes
// every rune, advances the position byte by byte, and builds every string
// literal and punctuation text. FuzzTokenize holds the scanner to it.
func refTokenize(src string) ([]Token, error) {
	var toks []Token
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
		r, _ := utf8.DecodeRuneInString(src[i:])
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
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == quote {
					// Doubled quote is an escaped quote.
					if i+1 < len(src) && src[i+1] == quote {
						sb.WriteByte(quote)
						advance(2)
						continue
					}
					advance(1)
					closed = true
					break
				}
				sb.WriteByte(src[i])
				advance(1)
			}
			if !closed {
				return nil, &Error{Line: tok.Line, Col: tok.Col, Msg: "unterminated string"}
			}
			tok.Text = sb.String()
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
			if i+1 < len(src) && refTwoRune[src[i:i+2]] {
				tok.Text = src[i : i+2]
				advance(2)
			} else if strings.ContainsRune("();,=<>*+-/.%!", r) || strings.ContainsRune("¬∧∨", r) {
				_, size := utf8.DecodeRuneInString(src[i:])
				tok.Text = string(r)
				advance(size)
			} else {
				return nil, &Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			toks = append(toks, tok)
		}
	}
	toks = append(toks, Token{Kind: EOF, Line: line, Col: col})
	return toks, nil
}

// refTwoRune, isIdentStart and isIdentPart are the reference's character
// classes, as the tokenizer had them before it classified bytes directly.
var refTwoRune = map[string]bool{
	"<=": true, ">=": true, "!=": true, "<>": true, "||": true, "&&": true,
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
