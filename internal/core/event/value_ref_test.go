package event

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// Value reference: the former seven-field struct, one field per payload,
// with its methods as they were, except that Compare orders numbers with
// cmp.Compare as Value.Compare does. The 24-byte tagged union in value.go
// must agree with it on every accessor, on Equal and Compare, on the text
// renderings and on the JSON bytes.
type refValue struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
	t    Time
	list []refValue
}

func (v refValue) Str() string      { return v.s }
func (v refValue) Bool() bool       { return v.b }
func (v refValue) Time() Time       { return v.t }
func (v refValue) List() []refValue { return v.list }

func (v refValue) Int() int64 {
	if v.kind == KindFloat {
		return int64(v.f)
	}
	return v.i
}

func (v refValue) Float() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

func (v refValue) Len() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindList:
		return len(v.list)
	default:
		return 1
	}
}

func (v refValue) Equal(w refValue) bool {
	if v.kind == KindList || w.kind == KindList {
		if v.kind != KindList || w.kind != KindList || len(v.list) != len(w.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].Equal(w.list[i]) {
				return false
			}
		}
		return true
	}
	c, ok := v.Compare(w)
	return ok && c == 0
}

func (v refValue) Compare(w refValue) (int, bool) {
	switch {
	case v.kind == KindNull && w.kind == KindNull:
		return 0, true
	case v.kind == KindNull || w.kind == KindNull:
		return 0, false
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	switch {
	case numeric(v.kind) && numeric(w.kind):
		if v.kind == KindInt && w.kind == KindInt {
			return cmp.Compare(v.i, w.i), true
		}
		return cmp.Compare(v.Float(), w.Float()), true
	case v.kind == KindString && w.kind == KindString:
		return strings.Compare(v.s, w.s), true
	case v.kind == KindTime && w.kind == KindTime:
		return cmp.Compare(v.t, w.t), true
	case v.kind == KindBool && w.kind == KindBool:
		switch {
		case v.b == w.b:
			return 0, true
		case !v.b:
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

func (v refValue) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindTime:
		return v.t.String()
	case KindList:
		parts := make([]string, len(v.list))
		for i, e := range v.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "?"
}

func (v refValue) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "null"...)
	case KindString:
		return append(dst, v.s...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(dst, v.b)
	case KindTime:
		return v.t.AppendText(dst)
	case KindList:
		dst = append(dst, '[')
		for i, e := range v.list {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = e.AppendText(dst)
		}
		return append(dst, ']')
	}
	return append(dst, '?')
}

type refValueJSON struct {
	S *string     `json:"s,omitempty"`
	I *int64      `json:"i,omitempty"`
	F *float64    `json:"f,omitempty"`
	B *bool       `json:"b,omitempty"`
	T *int64      `json:"t,omitempty"`
	L *[]refValue `json:"l,omitempty"`
}

func (v refValue) MarshalJSON() ([]byte, error) {
	switch v.kind {
	case KindNull:
		return []byte("null"), nil
	case KindString:
		return json.Marshal(refValueJSON{S: &v.s})
	case KindInt:
		return json.Marshal(refValueJSON{I: &v.i})
	case KindFloat:
		return json.Marshal(refValueJSON{F: &v.f})
	case KindBool:
		return json.Marshal(refValueJSON{B: &v.b})
	case KindTime:
		t := int64(v.t)
		return json.Marshal(refValueJSON{T: &t})
	case KindList:
		return json.Marshal(refValueJSON{L: &v.list})
	}
	return nil, nil
}

func (v *refValue) UnmarshalJSON(data []byte) error {
	*v = refValue{}
	if string(data) == "null" {
		return nil
	}
	var vj refValueJSON
	if err := json.Unmarshal(data, &vj); err != nil {
		return err
	}
	switch {
	case vj.S != nil:
		*v = refValue{kind: KindString, s: *vj.S}
	case vj.I != nil:
		*v = refValue{kind: KindInt, i: *vj.I}
	case vj.F != nil:
		*v = refValue{kind: KindFloat, f: *vj.F}
	case vj.B != nil:
		*v = refValue{kind: KindBool, b: *vj.B}
	case vj.T != nil:
		*v = refValue{kind: KindTime, t: Time(*vj.T)}
	case vj.L != nil:
		*v = refValue{kind: KindList, list: *vj.L}
	}
	return nil
}

// value builds the Value holding r's payload through the public
// constructors, keeping nil and empty lists apart.
func (r refValue) value() Value {
	switch r.kind {
	case KindString:
		return StringValue(r.s)
	case KindInt:
		return IntValue(r.i)
	case KindFloat:
		return FloatValue(r.f)
	case KindBool:
		return BoolValue(r.b)
	case KindTime:
		return TimeValue(r.t)
	case KindList:
		if r.list == nil {
			return ListValue(nil)
		}
		elems := make([]Value, len(r.list))
		for i, e := range r.list {
			elems[i] = e.value()
		}
		return ListValue(elems)
	}
	return Null
}

// refGen turns fuzz bytes into reference values; it reads zeros once the
// bytes run out.
type refGen struct {
	data []byte
	base string // substrings of it share its bytes
}

func (g *refGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *refGen) word() uint64 {
	var w uint64
	for i := 0; i < 8; i++ {
		w = w<<8 | uint64(g.byte())
	}
	return w
}

func (g *refGen) pick(n int) int { return int(g.byte()) % n }

// Pools shared between kinds, so that random pairs often compare equal:
// 3 is an int, a float and a time; "" is a string, a substring and a
// byte string.
var (
	refInts   = []int64{0, 1, -1, 3, -42, 1<<53 + 1, math.MinInt64, math.MaxInt64}
	refFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 3, -1.5, 1<<53 + 2, 1e300, math.SmallestNonzeroFloat64}
	refTimes  = []Time{0, 1, -1, 3, MinTime, MaxTime}
	refStrs   = []string{"", "a", "ab", "abc", "\xff\xfe\xfd", "a\x80b", "é", "null", "3"}
)

const refMaxDepth = 3 // lists nest up to three deep

func (g *refGen) value(depth int) refValue {
	switch g.pick(11) {
	case 1:
		return refValue{kind: KindString, s: refStrs[g.pick(len(refStrs))]}
	case 2: // a substring of the shared base
		lo := g.pick(len(g.base) + 1)
		hi := lo + g.pick(len(g.base)-lo+1)
		return refValue{kind: KindString, s: g.base[lo:hi]}
	case 3: // fresh bytes, not valid UTF-8 in general
		b := make([]byte, g.pick(8))
		for i := range b {
			b[i] = g.byte()
		}
		return refValue{kind: KindString, s: string(b)}
	case 4:
		return refValue{kind: KindInt, i: refInts[g.pick(len(refInts))]}
	case 5:
		return refValue{kind: KindInt, i: int64(g.word())}
	case 6:
		return refValue{kind: KindFloat, f: refFloats[g.pick(len(refFloats))]}
	case 7:
		return refValue{kind: KindFloat, f: math.Float64frombits(g.word())}
	case 8:
		return refValue{kind: KindBool, b: g.byte()&1 == 1}
	case 9:
		if g.byte()&1 == 0 {
			return refValue{kind: KindTime, t: refTimes[g.pick(len(refTimes))]}
		}
		return refValue{kind: KindTime, t: Time(g.word())}
	case 10:
		if depth >= refMaxDepth {
			return refValue{kind: KindInt, i: int64(depth)}
		}
		n := g.pick(5) // 0 means nil, 1 means empty
		if n == 0 {
			return refValue{kind: KindList}
		}
		list := make([]refValue, n-1)
		for i := range list {
			list[i] = g.value(depth + 1)
		}
		return refValue{kind: KindList, list: list}
	}
	return refValue{}
}

// matchRef fails unless v agrees with r on every accessor and rendering.
func matchRef(t *testing.T, v Value, r refValue) {
	t.Helper()
	if v.Kind() != r.kind || v.IsNull() != (r.kind == KindNull) || v.Str() != r.Str() ||
		v.Int() != r.Int() || math.Float64bits(v.Float()) != math.Float64bits(r.Float()) ||
		v.Bool() != r.Bool() || v.Time() != r.Time() || v.Len() != r.Len() {
		t.Fatalf("accessors differ for %v: kind %v/%v str %q/%q int %d/%d float %v/%v bool %t/%t time %d/%d len %d/%d",
			r, v.Kind(), r.kind, v.Str(), r.Str(), v.Int(), r.Int(), v.Float(), r.Float(),
			v.Bool(), r.Bool(), v.Time(), r.Time(), v.Len(), r.Len())
	}
	if got, want := v.String(), r.String(); got != want {
		t.Fatalf("String() = %q, reference %q", got, want)
	}
	if got, want := v.AppendText([]byte("x=")), r.AppendText([]byte("x=")); !bytes.Equal(got, want) {
		t.Fatalf("AppendText = %q, reference %q", got, want)
	}
	l, rl := v.List(), r.List()
	if (l == nil) != (rl == nil) || len(l) != len(rl) || cap(l) != len(l) {
		t.Fatalf("List() of %v: nil %t len %d cap %d, reference nil %t len %d",
			r, l == nil, len(l), cap(l), rl == nil, len(rl))
	}
	for i := range rl {
		matchRef(t, l[i], rl[i])
	}
	for i := 0; i < r.Len(); i++ { // a scalar's Elem(0) is itself
		want := r
		if r.kind == KindList {
			want = r.list[i]
		}
		if e := v.Elem(i); e.Kind() != want.kind || e.String() != want.String() {
			t.Fatalf("Elem(%d) of %v = %v, reference %v", i, r, e, want)
		}
	}
}

// matchRefJSON extends matchRef to the JSON bytes and their round trip.
func matchRefJSON(t *testing.T, v Value, r refValue) {
	t.Helper()
	matchRef(t, v, r)
	got, err := json.Marshal(v)
	want, refErr := json.Marshal(r)
	if (err == nil) != (refErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("JSON of %v = %s, %v; reference %s, %v", r, got, err, want, refErr)
	}
	if err != nil {
		return // NaN and ±Inf floats are not JSON
	}
	var back Value
	var refBack refValue
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("JSON %s does not round-trip: %v", got, err)
	}
	if err := json.Unmarshal(want, &refBack); err != nil {
		t.Fatalf("reference JSON %s does not round-trip: %v", want, err)
	}
	matchRef(t, back, refBack)
}

// matchRefPair fails unless Equal and Compare agree with the reference,
// in both directions.
func matchRefPair(t *testing.T, v, w Value, r, s refValue) {
	t.Helper()
	if got, want := v.Equal(w), r.Equal(s); got != want {
		t.Fatalf("%v.Equal(%v) = %t, reference %t", r, s, got, want)
	}
	c, ok := v.Compare(w)
	rc, rok := r.Compare(s)
	if c != rc || ok != rok {
		t.Fatalf("%v.Compare(%v) = %d, %t; reference %d, %t", r, s, c, ok, rc, rok)
	}
}

// refSpecialsSeed selects, in generator bytes, every pooled value of every
// kind, a substring, a byte string, nil and empty lists and a list nested
// three deep, so the seed corpus alone covers them pairwise.
func refSpecialsSeed() []byte {
	var seed []byte
	seed = append(seed, 0) // null
	for i := range refStrs {
		seed = append(seed, 1, byte(i))
	}
	seed = append(seed, 2, 2, 5, 2, 0, 0) // base[2:7], base[0:0]
	seed = append(seed, 3, 3, 0xff, 'a', 0x80)
	for i := range refInts {
		seed = append(seed, 4, byte(i))
	}
	for i := range refFloats {
		seed = append(seed, 6, byte(i))
	}
	seed = append(seed, 8, 0, 8, 1)
	for i := range refTimes {
		seed = append(seed, 9, 0, byte(i))
	}
	seed = append(seed, 10, 0, 10, 1) // nil list, empty list
	// [[[3, "ab"]], [1.5 bits]]: three levels of lists
	seed = append(seed, 10, 3, 10, 2, 10, 3, 4, 3, 1, 2, 7, 0x3f, 0xf8, 0, 0, 0, 0, 0, 0)
	return seed
}

func FuzzValueMatchesReference(f *testing.F) {
	f.Add(refSpecialsSeed())
	f.Add([]byte{})
	f.Add([]byte{4, 3, 6, 5, 9, 0, 3, 1, 2})                          // 3 as int, float and time; "ab"
	f.Add([]byte{10, 4, 4, 0, 6, 1, 10, 1, 10, 4, 4, 0, 6, 0, 10, 0}) // [0, -0, []] vs [0, 0, nil]
	f.Add([]byte{5, 0x80, 0, 0, 0, 0, 0, 0, 0, 7, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &refGen{data: data, base: strings.Repeat("xy\xffz", 3)}
		var refs []refValue
		for len(g.data) > 0 && len(refs) < 64 {
			refs = append(refs, g.value(0))
		}
		vals := make([]Value, len(refs))
		for i, r := range refs {
			vals[i] = r.value()
			matchRefJSON(t, vals[i], r)
		}
		for i := range refs {
			for j := range refs {
				matchRefPair(t, vals[i], vals[j], refs[i], refs[j])
			}
		}
	})
}

// TestValueLayout pins the tagged union's size, a Binding's, and that ==
// on Values does not compile.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(Binding{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Binding{}) = %d, want 40", got)
	}
	if reflect.TypeFor[Value]().Comparable() {
		t.Error("Value is comparable; == would compare string and list pointers")
	}
}
