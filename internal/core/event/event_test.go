package event

import (
	"slices"
	"testing"
	"time"
)

func ts(sec float64) Time { return Time(sec * float64(time.Second)) }

func TestTimeArithmetic(t *testing.T) {
	a := ts(10)
	if got := a.Add(5 * time.Second); got != ts(15) {
		t.Errorf("Add: got %v, want %v", got, ts(15))
	}
	if got := a.Sub(ts(4)); got != 6*time.Second {
		t.Errorf("Sub: got %v, want 6s", got)
	}
	if !ts(1).Before(ts(2)) || ts(2).Before(ts(1)) {
		t.Errorf("Before ordering wrong")
	}
	if !ts(2).After(ts(1)) {
		t.Errorf("After ordering wrong")
	}
}

func TestTimeSaturation(t *testing.T) {
	if got := MaxTime.Add(time.Hour); got != MaxTime {
		t.Errorf("MaxTime.Add: got %v", got)
	}
	if got := MinTime.Add(-time.Hour); got != MinTime {
		t.Errorf("MinTime.Add: got %v", got)
	}
	near := Time(int64(MaxTime) - 5)
	if got := near.Add(time.Hour); got != MaxTime {
		t.Errorf("overflow should saturate to MaxTime, got %v", got)
	}
	nearMin := Time(int64(MinTime) + 5)
	if got := nearMin.Add(-time.Hour); got != MinTime {
		t.Errorf("underflow should saturate to MinTime, got %v", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := ts(1.5).String(); got != "1.500s" {
		t.Errorf("String: got %q", got)
	}
	if MinTime.String() != "-inf" || MaxTime.String() != "+inf" {
		t.Errorf("sentinel strings wrong: %q %q", MinTime.String(), MaxTime.String())
	}
}

func TestInstanceFunctions(t *testing.T) {
	e1 := &Instance{Begin: ts(1), End: ts(3)}
	e2 := &Instance{Begin: ts(5), End: ts(9)}
	if got := e1.Interval(); got != 2*time.Second {
		t.Errorf("Interval: got %v", got)
	}
	if got := Dist(e1, e2); got != 6*time.Second {
		t.Errorf("Dist: got %v, want 6s", got)
	}
	if got := Dist(e2, e1); got != -6*time.Second {
		t.Errorf("Dist reversed: got %v, want -6s", got)
	}
	// interval(e1,e2) = max(t_end) - min(t_begin) = 9 - 1 = 8s.
	if got := Interval2(e1, e2); got != 8*time.Second {
		t.Errorf("Interval2: got %v, want 8s", got)
	}
	if got := Interval2(e2, e1); got != 8*time.Second {
		t.Errorf("Interval2 symmetric: got %v, want 8s", got)
	}
	b, e := SpanWith(e1, e2)
	if b != ts(1) || e != ts(9) {
		t.Errorf("SpanWith: got [%v, %v]", b, e)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{IntValue(1), IntValue(2), -1, true},
		{IntValue(2), IntValue(2), 0, true},
		{IntValue(3), FloatValue(2.5), 1, true},
		{FloatValue(2.5), IntValue(3), -1, true},
		{StringValue("a"), StringValue("b"), -1, true},
		{StringValue("x"), StringValue("x"), 0, true},
		{TimeValue(ts(1)), TimeValue(ts(2)), -1, true},
		{BoolValue(false), BoolValue(true), -1, true},
		{BoolValue(true), BoolValue(true), 0, true},
		{StringValue("1"), IntValue(1), 0, false},
		{Null, IntValue(1), 0, false},
		{Null, Null, 0, true},
	}
	for _, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v, %v) = (%d, %t), want (%d, %t)", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !IntValue(3).Equal(FloatValue(3)) {
		t.Errorf("numeric cross-kind equality failed")
	}
	l1 := ListValue([]Value{IntValue(1), StringValue("a")})
	l2 := ListValue([]Value{IntValue(1), StringValue("a")})
	l3 := ListValue([]Value{IntValue(1)})
	if !l1.Equal(l2) {
		t.Errorf("equal lists not equal")
	}
	if l1.Equal(l3) {
		t.Errorf("different-length lists equal")
	}
	if l1.Equal(IntValue(1)) {
		t.Errorf("list equal to scalar")
	}
}

func TestValueAccessors(t *testing.T) {
	if IntValue(7).Float() != 7.0 {
		t.Errorf("Int->Float")
	}
	if FloatValue(7.9).Int() != 7 {
		t.Errorf("Float->Int truncation")
	}
	l := ListValue([]Value{IntValue(1), IntValue(2)})
	if l.Len() != 2 || l.Elem(1).Int() != 2 {
		t.Errorf("list accessors")
	}
	if IntValue(5).Len() != 1 || IntValue(5).Elem(0).Int() != 5 {
		t.Errorf("scalar Len/Elem")
	}
	if Null.Len() != 0 || !Null.IsNull() {
		t.Errorf("null Len/IsNull")
	}
}

func TestParseScalar(t *testing.T) {
	if v := ParseScalar("42"); v.Kind() != KindInt || v.Int() != 42 {
		t.Errorf("int parse: %v", v)
	}
	if v := ParseScalar("4.5"); v.Kind() != KindFloat || v.Float() != 4.5 {
		t.Errorf("float parse: %v", v)
	}
	if v := ParseScalar("true"); v.Kind() != KindBool || !v.Bool() {
		t.Errorf("bool parse: %v", v)
	}
	if v := ParseScalar("laptop"); v.Kind() != KindString || v.Str() != "laptop" {
		t.Errorf("string parse: %v", v)
	}
}

func TestBindingsCompatibleAndMerge(t *testing.T) {
	a := MakeBindings(map[string]Value{"r": StringValue("r1"), "o": StringValue("o1")})
	b := MakeBindings(map[string]Value{"r": StringValue("r1"), "t": TimeValue(ts(5))})
	c := MakeBindings(map[string]Value{"r": StringValue("r2")})
	if !a.Compatible(b) {
		t.Errorf("a and b should be compatible")
	}
	if a.Compatible(c) {
		t.Errorf("a and c should be incompatible")
	}
	m := a.Merge(b)
	if len(m) != 3 || m.Val("t").Time() != ts(5) || m.Val("o").Str() != "o1" {
		t.Errorf("merge wrong: %v", m)
	}
	// Merge must not mutate a.
	if _, ok := a.Get("t"); ok {
		t.Errorf("Merge mutated receiver")
	}
	var nilB Bindings
	if got := nilB.Merge(a); len(got) != 2 {
		t.Errorf("nil merge: %v", got)
	}
	if !nilB.Compatible(a) || !a.Compatible(nilB) {
		t.Errorf("nil bindings should be compatible with anything")
	}
}

func TestBindingsProject(t *testing.T) {
	project := func(b Bindings, keys ...string) string { return string(b.AppendProject(nil, keys)) }
	a := MakeBindings(map[string]Value{"r": StringValue("r1"), "o": StringValue("o1")})
	k1 := project(a, "r")
	if k1 == "" {
		t.Errorf("projection with keys should not be empty")
	}
	if k2 := project(MakeBindings(map[string]Value{"r": StringValue("r1"), "o": StringValue("oX")}), "r"); k1 != k2 {
		t.Errorf("same projection should produce same key")
	}
	if k3 := project(MakeBindings(map[string]Value{"r": StringValue("r2")}), "r"); k1 == k3 {
		t.Errorf("different projection should differ")
	}
	if k := project(a, "r", "missing"); k != "r1\x00null\x00" {
		t.Errorf("missing key projects as %q, want null", k)
	}
	if k := project(a); k != "" {
		t.Errorf("empty projection = %q", k)
	}
	buf := []byte("keep")
	if got := string(a.AppendProject(buf, []string{"o"})); got != "keepo1\x00" {
		t.Errorf("AppendProject onto a buffer = %q", got)
	}
}

func TestCollectLists(t *testing.T) {
	elems := []Bindings{
		MakeBindings(map[string]Value{"o": StringValue("o1"), "t": TimeValue(ts(1))}),
		MakeBindings(map[string]Value{"o": StringValue("o2"), "t": TimeValue(ts(2))}),
		MakeBindings(map[string]Value{"o": StringValue("o3")}),
	}
	got := CollectLists(elems, nil)
	ov := got.Val("o")
	if ov.Kind() != KindList || ov.Len() != 3 || ov.Elem(2).Str() != "o3" {
		t.Errorf("o list wrong: %v", ov)
	}
	tv := got.Val("t")
	if tv.Len() != 3 || !tv.Elem(2).IsNull() {
		t.Errorf("t list should pad with null: %v", tv)
	}
	if CollectLists(nil, nil) != nil {
		t.Errorf("empty collect should be nil")
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"5sec", 5 * time.Second},
		{"0.1sec", 100 * time.Millisecond},
		{"10min", 10 * time.Minute},
		{"100msec", 100 * time.Millisecond},
		{"2hour", 2 * time.Hour},
		{"30s", 30 * time.Second},
		{"1.5s", 1500 * time.Millisecond},
		{"1h30m", 90 * time.Minute},
		{"1day", 24 * time.Hour},
		{" 5 sec ", 5 * time.Second},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "sec", "5parsec", "-3sec", "abc"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) should fail", bad)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{5 * time.Second, "5sec"},
		{10 * time.Minute, "10min"},
		{100 * time.Millisecond, "100msec"},
		{1500 * time.Millisecond, "1.5s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.in); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestExprString(t *testing.T) {
	p1 := &Prim{Reader: Term{Lit: "r1"}, Object: Term{Var: "o"}, At: Term{Var: "t"}}
	p2 := &Prim{Reader: Term{Lit: "r2"}, Object: Term{Var: "o2"}, At: Term{Var: "t2"},
		Preds: []Pred{{Fn: "type", Arg: "o2", Op: CmpEq, Val: "case"}}}
	e := &Within{X: &TSeq{L: &TSeqPlus{X: p1, Lo: 100 * time.Millisecond, Hi: time.Second},
		R: p2, Lo: 10 * time.Second, Hi: 20 * time.Second}, Max: time.Minute}
	s := e.String()
	for _, frag := range []string{"WITHIN", "TSEQ+", "observation('r1', o, t)", "type(o2) = 'case'"} {
		if !contains(s, frag) {
			t.Errorf("expr string %q missing %q", s, frag)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestWalkAndExprVars(t *testing.T) {
	p1 := &Prim{Reader: Term{Var: "r"}, Object: Term{Var: "o"}, At: Term{Var: "t1"}}
	p2 := &Prim{Reader: Term{Var: "r"}, Object: Term{Var: "o"}, At: Term{Var: "t2"}}
	e := &Within{X: &Seq{L: &Not{X: p1}, R: p2}, Max: 30 * time.Second}
	var count int
	Walk(e, func(Expr) bool { count++; return true })
	if count != 5 {
		t.Errorf("Walk visited %d nodes, want 5", count)
	}
	// Walk reaches every primitive, so it collects every bound variable.
	var vars []string
	Walk(e, func(x Expr) bool {
		if p, ok := x.(*Prim); ok {
			vars = append(vars, p.Vars()...)
		}
		return true
	})
	slices.Sort(vars)
	vars = slices.Compact(vars)
	if want := []string{"o", "r", "t1", "t2"}; !slices.Equal(vars, want) {
		t.Errorf("variables walked = %v, want %v", vars, want)
	}
	// Prune: stop at the Seq node.
	count = 0
	Walk(e, func(x Expr) bool {
		count++
		_, isSeq := x.(*Seq)
		return !isSeq
	})
	if count != 2 {
		t.Errorf("pruned Walk visited %d nodes, want 2", count)
	}
}

func TestCmpOpEval(t *testing.T) {
	if !CmpEq.Eval(0) || CmpEq.Eval(1) {
		t.Errorf("CmpEq")
	}
	if !CmpNe.Eval(1) || CmpNe.Eval(0) {
		t.Errorf("CmpNe")
	}
	if !CmpLt.Eval(-1) || CmpLt.Eval(0) {
		t.Errorf("CmpLt")
	}
	if !CmpLe.Eval(0) || CmpLe.Eval(1) {
		t.Errorf("CmpLe")
	}
	if !CmpGt.Eval(1) || CmpGt.Eval(-1) {
		t.Errorf("CmpGt")
	}
	if !CmpGe.Eval(0) || CmpGe.Eval(-1) {
		t.Errorf("CmpGe")
	}
}

func TestAllExprStringers(t *testing.T) {
	p := &Prim{Reader: Term{Lit: "r1"}, Object: Term{Var: "o"}, At: Term{Var: "t"}}
	cases := map[string]Expr{
		"OR":     &Or{L: p, R: p},
		"AND":    &And{L: p, R: p},
		"NOT":    &Not{X: p},
		"SEQ(":   &Seq{L: p, R: p},
		"TSEQ(":  &TSeq{L: p, R: p, Lo: time.Second, Hi: 2 * time.Second},
		"SEQ+(":  &SeqPlus{X: p},
		"TSEQ+(": &TSeqPlus{X: p, Lo: time.Second, Hi: 2 * time.Second},
		"WITHIN": &Within{X: p, Max: time.Second},
	}
	for frag, e := range cases {
		if s := e.String(); !contains(s, frag) || !contains(s, "observation") {
			t.Errorf("%T string %q missing %q", e, s, frag)
		}
	}
	// Walk covers every constructor.
	for _, e := range cases {
		n := 0
		Walk(e, func(Expr) bool { n++; return true })
		if n < 2 {
			t.Errorf("%T walk visited %d", e, n)
		}
	}
	Walk(nil, func(Expr) bool { t.Fatal("nil walked"); return true })
}

func TestMiscStringers(t *testing.T) {
	if got := (&Instance{Begin: ts(1), End: ts(1)}).String(); !contains(got, "1.000s") {
		t.Errorf("instant instance string: %q", got)
	}
	if got := (&Instance{Begin: ts(1), End: ts(2)}).String(); !contains(got, "..") {
		t.Errorf("spanning instance string: %q", got)
	}
	for k, want := range map[Kind]string{
		KindNull: "null", KindString: "string", KindInt: "int",
		KindFloat: "float", KindBool: "bool", KindTime: "time", KindList: "list",
	} {
		if k.String() != want {
			t.Errorf("Kind %d: %q", k, k.String())
		}
	}
	if !contains(Kind(99).String(), "kind(") {
		t.Errorf("unknown kind string")
	}
	vals := map[string]Value{
		"null": Null, "x": StringValue("x"), "3": IntValue(3),
		"2.5": FloatValue(2.5), "true": BoolValue(true),
		"1.000s": TimeValue(ts(1)),
	}
	for want, v := range vals {
		if v.String() != want {
			t.Errorf("Value string: %q want %q", v.String(), want)
		}
	}
	if got := ListValue([]Value{IntValue(1), StringValue("a")}).String(); got != "[1, a]" {
		t.Errorf("list string: %q", got)
	}
	if DurationValue(1500*time.Millisecond).Float() != 1.5 {
		t.Errorf("DurationValue")
	}
	l := ListValue([]Value{IntValue(9)})
	if got := l.List(); len(got) != 1 || got[0].Int() != 9 {
		t.Errorf("List accessor: %v", got)
	}
	for op, want := range map[CmpOp]string{
		CmpEq: "=", CmpNe: "!=", CmpLt: "<", CmpLe: "<=", CmpGt: ">", CmpGe: ">=",
	} {
		if op.String() != want {
			t.Errorf("CmpOp %v string %q", op, op.String())
		}
	}
	pred := Pred{Fn: "type", Arg: "o", Op: CmpEq, Val: "case"}
	if got := pred.String(); got != "type(o) = 'case'" {
		t.Errorf("Pred string: %q", got)
	}
	bare := Pred{Arg: "o", Op: CmpNe, Val: "x"}
	if got := bare.String(); got != "o != 'x'" {
		t.Errorf("bare pred string: %q", got)
	}
}

func TestObservationString(t *testing.T) {
	o := Observation{Reader: "r1", Object: "o9", At: ts(2)}
	if got := o.String(); got != "observation(r1, o9, 2.000s)" {
		t.Errorf("Observation.String = %q", got)
	}
}
