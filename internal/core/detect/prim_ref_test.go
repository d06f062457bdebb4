package detect

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// Primitive-match reference: a string-based linear matcher with its own
// memoized group and type lookups. It walks each pattern's Term/Pred AST
// per observation and compares strings — the paper's leaf matching, which
// the compiled plans (compile.go) must reproduce.
type primRef struct {
	groups    func(string) []string
	typeOf    func(string) string
	groupMemo map[string][]string
	typeMemo  map[string]string
}

func newPrimRef(groups func(string) []string, typeOf func(string) string) *primRef {
	return &primRef{groups: groups, typeOf: typeOf, groupMemo: map[string][]string{}, typeMemo: map[string]string{}}
}

func (m *primRef) groupsOf(reader string) []string {
	g, ok := m.groupMemo[reader]
	if !ok {
		g = m.groups(reader)
		m.groupMemo[reader] = g
	}
	return g
}

func (m *primRef) typeOfObj(object string) string {
	t, ok := m.typeMemo[object]
	if !ok {
		t = m.typeOf(object)
		m.typeMemo[object] = t
	}
	return t
}

// refPredArg resolves a predicate's argument variable against the
// observation attributes it could be bound to.
func refPredArg(p *event.Prim, arg string, obs event.Observation) (string, bool) {
	switch {
	case p.Reader.IsVar() && p.Reader.Var == arg:
		return obs.Reader, true
	case p.Object.IsVar() && p.Object.Var == arg:
		return obs.Object, true
	case !p.Reader.IsVar() && arg == "":
		return obs.Reader, true
	}
	return "", false
}

// match matches an observation against a primitive pattern and returns
// the variable bindings.
func (m *primRef) match(p *event.Prim, obs event.Observation) (event.Bindings, bool) {
	anon := func(t event.Term) bool { return t.Var == "" && t.Lit == "" }
	if !p.Reader.IsVar() && !anon(p.Reader) && p.Reader.Lit != obs.Reader {
		return nil, false
	}
	if !p.Object.IsVar() && !anon(p.Object) && p.Object.Lit != obs.Object {
		return nil, false
	}
	for _, pred := range p.Preds {
		arg, ok := refPredArg(p, pred.Arg, obs)
		if !ok {
			return nil, false
		}
		var got event.Value
		switch pred.Fn {
		case "group":
			// group(r) op 'g': satisfied when some group of the reader
			// satisfies the comparison.
			matched := false
			for _, g := range m.groupsOf(arg) {
				if pred.Op.Eval(compareStr(g, pred.Val)) {
					matched = true
					break
				}
			}
			if !matched {
				return nil, false
			}
			continue
		case "type":
			got = event.StringValue(m.typeOfObj(arg))
		case "":
			got = event.StringValue(arg)
		default:
			return nil, false
		}
		cmp, ok := got.Compare(event.ParseScalar(pred.Val))
		if !ok {
			// Mixed kinds fall back to string comparison.
			cmp = compareStr(got.String(), pred.Val)
		}
		if !pred.Op.Eval(cmp) {
			return nil, false
		}
	}
	var binds event.Bindings
	if p.Reader.IsVar() {
		binds = binds.Set(p.Reader.Var, event.StringValue(obs.Reader))
	}
	if p.Object.IsVar() {
		binds = binds.Set(p.Object.Var, event.StringValue(obs.Object))
	}
	if p.At.IsVar() {
		binds = binds.Set(p.At.Var, event.TimeValue(obs.At))
	}
	return binds, true
}

// matchLeaf adds the leaf WHERE, folded over the pattern's bindings.
func (m *primRef) matchLeaf(x event.Expr, obs event.Observation) (event.Bindings, bool) {
	var guard event.GExpr
	if g, ok := x.(*event.Guarded); ok {
		x, guard = g.X, g.Cond
	}
	binds, ok := m.match(x.(*event.Prim), obs)
	if ok && guard != nil && !event.GuardTruthy(foldGuard(guard, event.BindsLookup(binds))) {
		return nil, false
	}
	return binds, ok
}

// Stream vocabulary for the differential: readers in zero, one or several
// groups (one group name looks numeric), and typed readers and objects.
var (
	refEarlyReaders = []string{"dock_1", "dock_2", "store"}
	refLateReaders  = []string{"late_0", "late_1", "multi", "exit_9"}
	refGroups       = map[string][]string{
		"dock_1": {"g_dock"},
		"dock_2": {"g_dock", "g_in"},
		"store":  {"g_store"},
		"late_1": {"g_exit"},
		"multi":  {"g_dock", "g_exit", "g_store"},
		"exit_9": {"g_exit", "9"},
		// late_0 is in no group.
	}
	refTypes   = []string{"laptop", "pallet", "", "10", "9"}
	refGroupsV = []string{"g_dock", "g_in", "g_store", "g_exit", "9"}
)

func refGroupsOf(r string) []string { return refGroups[r] }

// refTypeOf types objects by suffix and readers by name.
func refTypeOf(s string) string {
	if strings.HasPrefix(s, "obj") {
		n := 0
		fmt.Sscanf(s, "obj%d", &n)
		return refTypes[n%len(refTypes)]
	}
	if s == "exit_9" || s == "late_1" {
		return "portal"
	}
	return ""
}

// refStream interns thousands of objects through the early readers
// before the late readers are first seen; obj7 recurs throughout.
func refStream(r *rand.Rand) []event.Observation {
	var out []event.Observation
	at := event.Time(0)
	add := func(reader, object string) {
		at += event.Time(1+r.Intn(3)) * event.Time(time.Second)
		if r.Intn(10) == 0 {
			object = "obj7"
		}
		out = append(out, event.Observation{Reader: reader, Object: object, At: at})
	}
	for i := 0; i < 3000; i++ {
		add(refEarlyReaders[r.Intn(len(refEarlyReaders))], fmt.Sprintf("obj%d", i))
	}
	all := append(append([]string(nil), refEarlyReaders...), refLateReaders...)
	for i := 0; i < 1500; i++ {
		add(all[r.Intn(len(all))], fmt.Sprintf("obj%d", r.Intn(3200)))
	}
	return out
}

// refRule draws a random single-primitive rule: literal, variable or
// anonymous reader and object; zero to three group, type or bare
// predicates under every operator; literals drawn from the stream's
// vocabulary and a few misses; and, sometimes, a leaf WHERE.
func refRule(r *rand.Rand) event.Expr {
	pick := func(vs ...string) string { return vs[r.Intn(len(vs))] }
	readers := append(append([]string(nil), refEarlyReaders...), refLateReaders...)
	p := &event.Prim{}
	switch r.Intn(3) {
	case 0:
		p.Reader = event.Term{Lit: pick(append(readers, "nowhere")...)}
	case 1:
		p.Reader = event.Term{Var: "r"}
	}
	switch r.Intn(5) {
	case 0:
		p.Object = event.Term{Lit: pick("obj7", "obj7", "obj42", "zzz")}
	case 1, 2:
		p.Object = event.Term{Var: "o"}
	case 3:
		p.Object = event.Term{Var: p.Reader.Var + "x"} // "x", or "rx" beside a variable reader
		if r.Intn(2) == 0 {
			p.Object.Var = "r" // shares the reader's variable name
		}
	}
	if r.Intn(3) > 0 {
		p.At = event.Term{Var: "t"}
	}
	var attrs []string // variables bound to the reader or object
	for _, t := range []event.Term{p.Reader, p.Object} {
		if t.IsVar() {
			attrs = append(attrs, t.Var)
		}
	}
	for n := r.Intn(4); n > 0; n-- {
		pred := event.Pred{Op: event.CmpOp(r.Intn(6))}
		switch k := r.Intn(10); {
		case k < 8 && len(attrs) > 0:
			pred.Arg = pick(attrs...)
		case k == 8:
			pred.Arg = "t" // never a predicate argument: the pattern is dead
		}
		isObj := pred.Arg != "" && p.Object.IsVar() && pred.Arg == p.Object.Var && pred.Arg != p.Reader.Var
		switch k := r.Intn(15); {
		case k < 6:
			pred.Fn = "group"
			pred.Val = pick(append(refGroupsV, "g_none")...)
		case k < 10:
			pred.Fn = "type"
			pred.Val = pick("laptop", "pallet", "portal", "10", "9", "", "zzz")
		case k < 14 && isObj:
			pred.Val = pick("obj7", "obj1500", "obj2999", "obj", "100")
		case k < 14:
			pred.Val = pick(append(readers, "late", "zzz")...)
		default:
			pred.Fn = "weight" // unknown function: the pattern is dead
			pred.Val = "1"
		}
		p.Preds = append(p.Preds, pred)
	}
	if r.Intn(3) > 0 {
		return p
	}
	// A leaf WHERE over a variable the pattern binds.
	bound := attrs
	if p.At.IsVar() {
		bound = append(bound, "t")
	}
	if len(bound) == 0 {
		return p
	}
	v := &event.GVar{Name: pick(bound...)}
	var lit event.GExpr = &event.GLit{V: event.StringValue(pick(append(readers, "obj7", "obj2000")...))}
	if v.Name == "t" {
		lit = &event.GLit{V: event.IntValue(int64(r.Intn(9000)))}
	}
	return &event.Guarded{X: p, Cond: &event.GBin{Op: event.GuardOp(int(event.GuardEq) + r.Intn(6)), L: v, R: lit}}
}

// TestPrimitiveMatchMatchesReference holds the compiled leaf matcher —
// per-reader dispatch lists, interned literals, memoized predicates and
// binding templates — to the string-based reference: for every
// observation, the set of (rule, bindings) the engine detects equals the
// set the reference matches.
func TestPrimitiveMatchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		stream := refStream(r)
		b := graph.NewBuilder()
		var rules []event.Expr
		for len(rules) < 40 {
			x := refRule(r)
			if _, err := b.AddRule(len(rules), x); err != nil {
				continue
			}
			rules = append(rules, x)
		}
		var got []string
		eng, err := New(Config{
			Graph: b.Finalize(), Groups: refGroupsOf, TypeOf: refTypeOf,
			OnDetect: func(rid int, inst *event.Instance) {
				got = append(got, fmt.Sprintf("%d %s", rid, inst.Binds))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := newPrimRef(refGroupsOf, refTypeOf)
		matched := map[int]bool{}
		for i, o := range stream {
			got = got[:0]
			if err := eng.Ingest(o); err != nil {
				t.Fatal(err)
			}
			var want []string
			for rid, x := range rules {
				if binds, ok := ref.matchLeaf(x, o); ok {
					want = append(want, fmt.Sprintf("%d %s", rid, binds))
					matched[rid] = true
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("seed %d, observation %d %v:\nengine    %q\nreference %q", seed, i, o, got, want)
			}
		}
		if len(matched) < len(rules)/5 {
			t.Fatalf("seed %d: only %d of %d rules ever match; the differential is vacuous", seed, len(matched), len(rules))
		}
	}
}
