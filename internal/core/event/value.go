package event

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind uint8

// Value kinds. KindList values arise only from aggregating sequence
// constructors (SEQ+, TSEQ+), which collect one element per constituent.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindTime
	KindList
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	case KindList:
		return "list"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a dynamically typed scalar or list used in event bindings, rule
// conditions and the mini-SQL engine. The zero Value is null.
//
// A Value is a 24-byte tagged union, laid out like log/slog.Value: the
// kind, one payload word n and one pointer p. Ints, times, float bits
// (math.Float64bits) and bools (0 or 1) live in n and leave p nil. A
// string is the n bytes at p; a list is the n elements at p. A Binding is
// therefore 40 bytes, and the collector scans one pointer word per value.
//
// Value is not comparable: == would compare string and list pointers, not
// their contents. Use Equal or Compare. List returns a slice whose cap is
// its len.
type Value struct {
	_    [0]func() // not comparable: == would compare string pointers
	kind Kind
	n    uint64         // int, float bits, bool, time; string or list length
	p    unsafe.Pointer // string bytes or list elements
}

// Null is the null Value.
var Null = Value{}

// StringValue returns a string Value.
func StringValue(s string) Value {
	return Value{kind: KindString, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// IntValue returns an integer Value.
func IntValue(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// FloatValue returns a floating-point Value.
func FloatValue(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// BoolValue returns a boolean Value.
func BoolValue(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// TimeValue returns a timestamp Value.
func TimeValue(t Time) Value { return Value{kind: KindTime, n: uint64(t)} }

// ListValue returns a list Value holding elems. The slice is not copied.
func ListValue(elems []Value) Value {
	return Value{kind: KindList, n: uint64(len(elems)), p: unsafe.Pointer(unsafe.SliceData(elems))}
}

// The payload accessors below read n and p as the named kind without
// checking it; callers switch on kind first.

func (v Value) s() string  { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) b() bool    { return v.n != 0 }
func (v Value) t() Time    { return Time(v.n) }
func (v Value) l() []Value { return unsafe.Slice((*Value)(v.p), int(v.n)) }

// slabChunk is the size of a name slab's chunks (DESIGN.md §12). A name
// longer than slabChunk/8 is allocated alone, so no chunk strands more
// than an eighth of itself.
const slabChunk = 4 << 10

// SlabString returns a string holding a copy of b, cut from *slab: the
// copy is appended to the slab's current chunk, or to a fresh one when it
// lacks room. A slab is only ever appended to, so bytes under a returned
// string are never rewritten. Each string pins its whole chunk. The slab
// is the caller's: it needs whatever lock guards the caller's state.
func SlabString[T ~string | ~[]byte](slab *[]byte, b T) string {
	if len(b) == 0 || len(b) > slabChunk/8 {
		return string(b)
	}
	if cap(*slab)-len(*slab) < len(b) {
		*slab = make([]byte, 0, slabChunk)
	}
	n := len(*slab)
	*slab = append(*slab, b...)
	return unsafe.String(&(*slab)[n], len(b))
}

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return v.s()
}

// Int returns the integer payload, converting floats by truncation.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return v.i()
	case KindFloat:
		return int64(v.f())
	}
	return 0
}

// Float returns the floating-point payload, converting integers.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f()
	case KindInt:
		return float64(v.i())
	}
	return 0
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.kind == KindBool && v.b() }

// Time returns the timestamp payload.
func (v Value) Time() Time {
	if v.kind != KindTime {
		return 0
	}
	return v.t()
}

// List returns the list payload, with cap == len; it is only meaningful
// for KindList.
func (v Value) List() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.l()
}

// Len returns the number of list elements, or 1 for scalars and 0 for null.
func (v Value) Len() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindList:
		return int(v.n)
	default:
		return 1
	}
}

// Elem returns the i'th element for lists, or the value itself for scalars.
func (v Value) Elem(i int) Value {
	if v.kind == KindList {
		return v.l()[i]
	}
	return v
}

// Equal reports deep equality of two values. Int and float values compare
// numerically (IntValue(3).Equal(FloatValue(3)) is true).
func (v Value) Equal(w Value) bool {
	if v.kind == KindList || w.kind == KindList {
		if v.kind != KindList || w.kind != KindList || v.n != w.n {
			return false
		}
		vl, wl := v.l(), w.l()
		for i := range vl {
			if !vl[i].Equal(wl[i]) {
				return false
			}
		}
		return true
	}
	c, ok := v.Compare(w)
	return ok && c == 0
}

// Compare orders two scalar values. It returns -1, 0 or 1 and ok=true when
// the values are comparable (same family: numeric with numeric, string with
// string, time with time, bool with bool); otherwise ok is false. Numbers
// order as cmp.Compare orders them: a NaN equals a NaN and sorts below
// every number, and -0 equals 0, so Equal is an equivalence on floats.
func (v Value) Compare(w Value) (int, bool) {
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
			return cmp.Compare(v.i(), w.i()), true
		}
		return cmp.Compare(v.Float(), w.Float()), true
	case v.kind == KindString && w.kind == KindString:
		return strings.Compare(v.s(), w.s()), true
	case v.kind == KindTime && w.kind == KindTime:
		return cmp.Compare(v.t(), w.t()), true
	case v.kind == KindBool && w.kind == KindBool:
		switch {
		case v.b() == w.b():
			return 0, true
		case !v.b():
			return -1, true
		default:
			return 1, true
		}
	}
	return 0, false
}

// String renders the value for display and diagnostics.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return v.s()
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b())
	case KindTime:
		return v.t().String()
	case KindList:
		parts := make([]string, v.n)
		for i, e := range v.l() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	return "?"
}

// AppendText appends String()'s rendering to dst without allocating
// (except for dst growth). The hot paths — buffer partition keys, bench
// detection-stream hashing — fold values into reused byte buffers through
// it instead of materializing strings.
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "null"...)
	case KindString:
		return append(dst, v.s()...)
	case KindInt:
		return strconv.AppendInt(dst, v.i(), 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f(), 'g', -1, 64)
	case KindBool:
		return strconv.AppendBool(dst, v.b())
	case KindTime:
		return v.t().AppendText(dst)
	case KindList:
		dst = append(dst, '[')
		for i, e := range v.l() {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = e.AppendText(dst)
		}
		return append(dst, ']')
	}
	return append(dst, '?')
}

// Binding is one variable→value pair in a Bindings set.
type Binding struct {
	Var string
	Val Value
}

// Bindings is a small ordered set of variable bindings, kept sorted by
// variable name. Scalar bindings come from single observations; list
// bindings from aggregating sequence constructors.
//
// The sorted-slice representation replaces an earlier map: detection
// allocates one Bindings per primitive match, and at the typical two to
// four variables a slice costs a single allocation while Compatible/Merge
// run as linear merges with no hashing. The zero value is the empty set;
// build with Set (which returns the updated slice, like append) or
// MakeBindings, read with Get.
type Bindings []Binding

// Get returns the value bound to k.
func (b Bindings) Get(k string) (Value, bool) {
	for _, kv := range b {
		if kv.Var == k {
			return kv.Val, true
		}
		if kv.Var > k {
			break
		}
	}
	return Value{}, false
}

// Val returns the value bound to k, or Null when unbound.
func (b Bindings) Val(k string) Value {
	v, _ := b.Get(k)
	return v
}

// Set binds k to v, keeping the set sorted, and returns the updated slice
// (append semantics: the caller must use the return value).
func (b Bindings) Set(k string, v Value) Bindings {
	i := 0
	for i < len(b) && b[i].Var < k {
		i++
	}
	if i < len(b) && b[i].Var == k {
		b[i].Val = v
		return b
	}
	b = append(b, Binding{})
	copy(b[i+1:], b[i:])
	b[i] = Binding{Var: k, Val: v}
	return b
}

// MakeBindings builds a Bindings set from a map literal.
func MakeBindings(m map[string]Value) Bindings {
	if len(m) == 0 {
		return nil
	}
	out := make(Bindings, 0, len(m))
	for k, v := range m {
		out = out.Set(k, v)
	}
	return out
}

// Clone returns a shallow copy of b (list payloads are shared, which is
// safe because values are immutable once bound).
func (b Bindings) Clone() Bindings {
	if b == nil {
		return nil
	}
	return append(make(Bindings, 0, len(b)), b...)
}

// Compatible reports whether b and o agree on every variable they share.
// List-valued bindings are compared by deep equality.
func (b Bindings) Compatible(o Bindings) bool {
	i, j := 0, 0
	for i < len(b) && j < len(o) {
		switch {
		case b[i].Var < o[j].Var:
			i++
		case b[i].Var > o[j].Var:
			j++
		default:
			if !b[i].Val.Equal(o[j].Val) {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// Merge returns the union of b and o. The caller must have checked
// Compatible first; on conflict o's value wins.
func (b Bindings) Merge(o Bindings) Bindings {
	if len(b) == 0 {
		return o.Clone()
	}
	if len(o) == 0 {
		return b.Clone()
	}
	m := make(Bindings, 0, len(b)+len(o))
	i, j := 0, 0
	for i < len(b) || j < len(o) {
		switch {
		case j >= len(o):
			m = append(m, b[i])
			i++
		case i >= len(b):
			m = append(m, o[j])
			j++
		case b[i].Var < o[j].Var:
			m = append(m, b[i])
			i++
		case b[i].Var > o[j].Var:
			m = append(m, o[j])
			j++
		default:
			m = append(m, o[j])
			i++
			j++
		}
	}
	return m
}

// AppendProject appends to dst the key form of b restricted to the given
// keys, usable as a hash key for partitioned instance buffers: each key's
// value text and a NUL, a missing key rendered as null. It writes into a
// caller-reused buffer, so hot-path partition lookups allocate nothing.
func (b Bindings) AppendProject(dst []byte, keys []string) []byte {
	for _, k := range keys {
		v, _ := b.Get(k)
		dst = v.AppendText(dst)
		dst = append(dst, '\x00')
	}
	return dst
}

// String renders bindings deterministically (sorted by variable).
func (b Bindings) String() string {
	if len(b) == 0 {
		return "{}"
	}
	return string(b.AppendText(nil))
}

// AppendText appends String()'s rendering to dst without allocating.
func (b Bindings) AppendText(dst []byte) []byte {
	if len(b) == 0 {
		return append(dst, "{}"...)
	}
	dst = append(dst, '{')
	for i, kv := range b {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, kv.Var...)
		dst = append(dst, '=')
		dst = kv.Val.AppendText(dst)
	}
	return append(dst, '}')
}

// Carve slices n elements off *slab with cap == n, so an append relocates
// instead of clobbering a neighbour. A slab without room for n is
// abandoned for a fresh one of max(size, n).
func Carve[T any](slab *[]T, n, size int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(size, n))
	}
	off := len(*slab)
	*slab = (*slab)[:off+n]
	return (*slab)[off : off+n : off+n]
}

// Allocator supplies the storage CollectLists fills: full-capacity slices
// of length n. detect carves them out of its engine's arenas.
type Allocator interface {
	Bindings(n int) Bindings
	Values(n int) []Value
}

// heap is the Allocator of a nil Allocator: plain make.
type heap struct{}

func (heap) Bindings(n int) Bindings { return make(Bindings, n) }
func (heap) Values(n int) []Value    { return make([]Value, n) }

// CollectLists merges a sequence of element bindings into list bindings:
// for every variable bound by any element, the result binds that variable
// to the ordered list of its values across elements (null where an element
// did not bind it). Used by SEQ+/TSEQ+ when a sequence closes. The result
// and its lists come from a, or from make when a is nil.
func CollectLists(elems []Bindings, a Allocator) Bindings {
	if len(elems) == 0 {
		return nil
	}
	if a == nil {
		a = heap{}
	}
	// Elements bind few variables; a sorted-insert slice, on the stack for
	// up to eight, beats a map both in allocations and in the final sort
	// it makes redundant.
	var buf [8]string
	keys := buf[:0]
	for _, e := range elems {
		for _, kv := range e {
			i := sort.SearchStrings(keys, kv.Var)
			if i < len(keys) && keys[i] == kv.Var {
				continue
			}
			keys = append(keys, "")
			copy(keys[i+1:], keys[i:])
			keys[i] = kv.Var
		}
	}
	out := a.Bindings(len(keys))
	for j, k := range keys {
		vals := a.Values(len(elems))
		for i, e := range elems {
			vals[i], _ = e.Get(k)
		}
		out[j] = Binding{Var: k, Val: ListValue(vals)}
	}
	return out
}

// ParseScalar interprets a literal string as the most specific scalar value:
// int, float, bool, else string. Rule and SQL literals use it.
func ParseScalar(s string) Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return IntValue(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return FloatValue(f)
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return BoolValue(b)
	}
	return StringValue(s)
}

// DurationValue converts a duration to a float Value in seconds; useful in
// conditions comparing interval lengths.
func DurationValue(d time.Duration) Value { return FloatValue(d.Seconds()) }
