package lex

import (
	"slices"
	"strings"
	"testing"
)

// tokenize scans src through a pooled stream and returns a copy of its
// tokens.
func tokenize(src string) ([]Token, error) {
	var s Stream
	if err := s.Open(src); err != nil {
		return nil, err
	}
	defer s.Close()
	return slices.Clone(s.toks), nil
}

// open returns a stream over src that is closed when the test ends.
func open(t *testing.T, src string) *Stream {
	t.Helper()
	s := new(Stream)
	if err := s.Open(src); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := tokenize(`CREATE RULE r4, 'containment rule' ON TSEQ(E1; E2, 0.1sec, 10sec)`)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind Kind
		text string
	}{
		{Ident, "CREATE"}, {Ident, "RULE"}, {Ident, "r4"}, {Punct, ","},
		{String, "containment rule"}, {Ident, "ON"}, {Ident, "TSEQ"},
		{Punct, "("}, {Ident, "E1"}, {Punct, ";"}, {Ident, "E2"}, {Punct, ","},
		{Number, "0.1"}, {Ident, "sec"}, {Punct, ","}, {Number, "10"},
		{Ident, "sec"}, {Punct, ")"}, {EOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), kinds(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestTokenizeStringsAndEscapes(t *testing.T) {
	toks, err := tokenize(`'it''s' "double" 'mix"ed'`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "it's" || toks[1].Text != "double" || toks[2].Text != `mix"ed` {
		t.Errorf("strings: %q %q %q", toks[0].Text, toks[1].Text, toks[2].Text)
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := tokenize("a -- comment here\nb")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Errorf("comment handling: %v", toks)
	}
	if toks[1].Line != 2 {
		t.Errorf("line tracking: %+v", toks[1])
	}
}

func TestTokenizeTwoRunePuncts(t *testing.T) {
	toks, err := tokenize("a <= b >= c != d <> e || f")
	if err != nil {
		t.Fatal(err)
	}
	var puncts []string
	for _, tok := range toks {
		if tok.Kind == Punct {
			puncts = append(puncts, tok.Text)
		}
	}
	want := []string{"<=", ">=", "!=", "<>", "||"}
	if strings.Join(puncts, " ") != strings.Join(want, " ") {
		t.Errorf("puncts = %v, want %v", puncts, want)
	}
}

func TestTokenizeErrors(t *testing.T) {
	if _, err := tokenize("'unterminated"); err == nil {
		t.Errorf("unterminated string accepted")
	}
	if _, err := tokenize("1.2.3"); err == nil {
		t.Errorf("malformed number accepted")
	}
	if _, err := tokenize("a $ b"); err == nil {
		t.Errorf("stray character accepted")
	}
}

func TestStreamHelpers(t *testing.T) {
	s := open(t, "ON event IF true")
	if !s.Peek().IsKeyword("on") {
		t.Errorf("Peek/IsKeyword failed")
	}
	if _, err := s.ExpectKeyword("ON"); err != nil {
		t.Fatal(err)
	}
	if tok, err := s.ExpectIdent(); err != nil || tok.Text != "event" {
		t.Fatalf("ExpectIdent: %v %v", tok, err)
	}
	if !s.AcceptKeyword("IF") {
		t.Errorf("AcceptKeyword failed")
	}
	if s.AcceptKeyword("missing") {
		t.Errorf("AcceptKeyword matched wrong keyword")
	}
	if s.PeekAt(0).Text != "true" {
		t.Errorf("PeekAt: %v", s.PeekAt(0))
	}
	s.Next()
	if !s.AtEOF() {
		t.Errorf("should be at EOF")
	}
	// Next at EOF stays at EOF.
	if s.Next().Kind != EOF || s.Next().Kind != EOF {
		t.Errorf("EOF should be sticky")
	}
}

func TestExpectErrors(t *testing.T) {
	s := open(t, "abc")
	if _, err := s.Expect("("); err == nil {
		t.Errorf("Expect should fail")
	} else if !strings.Contains(err.Error(), "line 1:1") {
		t.Errorf("error lacks position: %v", err)
	}
	if _, err := s.ExpectKeyword("on"); err == nil {
		t.Errorf("ExpectKeyword should fail on wrong keyword")
	}
	s2 := open(t, "123")
	if _, err := s2.ExpectIdent(); err == nil {
		t.Errorf("ExpectIdent should fail on number")
	}
}

func TestPosSliceJoinText(t *testing.T) {
	s := open(t, `INSERT INTO t VALUES ('it''s', 5)`)
	start := s.Pos()
	for !s.AtEOF() {
		s.Next()
	}
	toks := s.Slice(start, s.Pos())
	text := JoinText(toks)
	// Strings are re-quoted with doubled quotes.
	if !strings.Contains(text, "'it''s'") {
		t.Errorf("JoinText: %q", text)
	}
	if !strings.HasPrefix(text, "INSERT INTO t VALUES") {
		t.Errorf("JoinText prefix: %q", text)
	}
	// Round trip: the joined text must lex to the same token kinds.
	toks2, err := tokenize(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks2)-1 != len(toks) { // Slice excludes EOF; scan adds one
		t.Errorf("token count drift: %d vs %d", len(toks2)-1, len(toks))
	}
}

func TestKindAndTokenStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		EOF: "EOF", Ident: "identifier", Number: "number",
		String: "string", Punct: "punctuation",
	} {
		if k.String() != want {
			t.Errorf("Kind %d string %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(42).String(), "kind(") {
		t.Errorf("unknown kind")
	}
	if (Token{Kind: EOF}).String() != "end of input" {
		t.Errorf("EOF token string")
	}
	if (Token{Kind: String, Text: "x"}).String() != "'x'" {
		t.Errorf("string token string")
	}
	if (Token{Kind: Ident, Text: "abc"}).String() != "abc" {
		t.Errorf("ident token string")
	}
}

func TestUnicodePunct(t *testing.T) {
	toks, err := tokenize("E1 ∧ ¬E2 ∨ E3")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks[:len(toks)-1] {
		texts = append(texts, tok.Text)
	}
	want := []string{"E1", "∧", "¬", "E2", "∨", "E3"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Errorf("unicode puncts: %v", texts)
	}
}

func BenchmarkScanProbe(b *testing.B) {
	const src = `SELECT loc_id, tstart, tend FROM OBJECTLOCATION WHERE object_epc = 'urn:epc:id:gid:1.1.000000000042'`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Stream
		if err := s.Open(src); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// TestCloseDropsBuffersAboveTheLimit: Close hands a buffer of
// maxPooledTokens back to the pool, emptied and cleared so that it pins no
// source, and drops a buffer one token larger.
func TestCloseDropsBuffersAboveTheLimit(t *testing.T) {
	for _, size := range []int{maxPooledTokens, maxPooledTokens + 1} {
		var held []Token
		s := Stream{toks: make([]Token, 2, size), buf: &held}
		s.toks[0] = Token{Kind: Ident, Text: "held", Line: 1, Col: 1}
		toks := s.toks
		s.Close()
		if pooled := cap(held) == size; pooled != (size <= maxPooledTokens) {
			t.Errorf("a buffer of %d tokens: pooled %v, limit %d", size, pooled, maxPooledTokens)
		}
		if size <= maxPooledTokens && (len(held) != 0 || toks[0] != Token{}) {
			t.Errorf("pooled buffer of %d tokens kept len %d, first token %+v", size, len(held), toks[0])
		}
		if s.toks != nil || s.buf != nil {
			t.Errorf("closed stream still holds its buffer")
		}
	}
	// A source of more tokens than the limit still scans whole.
	src := strings.Repeat("a ", maxPooledTokens)
	toks, err := tokenize(src)
	if err != nil || len(toks) != maxPooledTokens+1 || toks[maxPooledTokens].Kind != EOF {
		t.Fatalf("%d tokens, err %v; want %d", len(toks), err, maxPooledTokens+1)
	}
}
