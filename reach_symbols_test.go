package rcep

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// The reachability gate (reach_test.go, built with -tags reach) compares the
// functions linked into the module's binaries with the functions its
// packages declare. The helpers here turn both sides into one key form,
// "importpath.Func" or "importpath.Recv.Method", and read the committed list
// of functions allowed to stay unlinked. They are untagged so that tier-1
// checks them without building anything.

// reachListPath lists the declared functions that no binary links, each with
// the item or reason that owns it. The list may only shrink.
const reachListPath = "testdata/reach/unlinked.txt"

// nmTextSymbol returns the name on a line of `go tool nm` output when the
// symbol is code. Names of generic instantiations hold spaces.
func nmTextSymbol(line string) (string, bool) {
	f := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
		return "", false
	}
	return f[2], true
}

// nmFuncKey maps a text symbol printed by `go tool nm` to the declaration it
// belongs to. Type arguments are cut with a balanced-bracket scan, since
// they hold spaces and nested brackets; closures, method values, defer and go
// wrappers and range-over-func bodies map to their enclosing function. ok is
// false for symbols outside the module.
func nmFuncKey(sym string) (key string, ok bool) {
	if !strings.HasPrefix(sym, "rcep.") && !strings.HasPrefix(sym, "rcep/") {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	dot := strings.LastIndexByte(s, '/') + 1
	dot += strings.IndexByte(s[dot:], '.')
	pkg, rest := s[:dot], s[dot+1:]
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	var parts []string
	for _, p := range strings.Split(rest, ".") {
		if i := strings.IndexByte(p, '-'); i >= 0 {
			p = p[:i] // M-fm, F-range1
		}
		if p == "" || isClosureName(p) {
			continue
		}
		parts = append(parts, p)
		if len(parts) == 2 {
			break
		}
	}
	return pkg + "." + strings.Join(parts, "."), true
}

// isClosureName reports names the compiler gives to function literals and
// wrappers (func1, gowrap2, deferwrap1) and to nested closures and numbered
// init functions (1, 2).
func isClosureName(p string) bool {
	for _, w := range []string{"func", "gowrap", "deferwrap"} {
		if n := strings.TrimPrefix(p, w); n != p {
			p = n
			break
		}
	}
	return p != "" && strings.Trim(p, "0123456789") == ""
}

// declFuncKey is nmFuncKey's form for a declaration in package pkg.
func declFuncKey(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	return pkg + "." + t.(*ast.Ident).Name + "." + fd.Name.Name
}

// reachExempt reports declarations the gate does not check: init functions,
// which nothing names, and methods with an empty body, which exist to put a
// type into an interface (isExpr, isGuard) and are never called.
func reachExempt(fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return fd.Name.Name == "init"
	}
	return fd.Body != nil && len(fd.Body.List) == 0
}

// readReachList reads lines of the form "symbol  # item N: reason". Every
// entry must say who owns it.
func readReachList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	list := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, why, _ := strings.Cut(line, "#")
		sym, why = strings.TrimSpace(sym), strings.TrimSpace(why)
		switch {
		case why == "":
			return nil, fmt.Errorf("%s:%d: %s names no owning item or reason", path, n, sym)
		case strings.ContainsAny(sym, " \t"):
			return nil, fmt.Errorf("%s:%d: want one symbol before '#', got %q", path, n, sym)
		case list[sym] != "":
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, sym)
		}
		list[sym] = why
	}
	return list, sc.Err()
}

func TestNMFuncKey(t *testing.T) {
	// Lines `go tool nm` prints for this module's binaries.
	for _, c := range []struct{ line, want string }{
		{"  591e80 T rcep/internal/wire.(*Server).Serve", "rcep/internal/wire.Server.Serve"},
		{"  4bcfa0 T rcep/internal/core/event.Value.Kind", "rcep/internal/core/event.Value.Kind"},
		{"  4cf9e0 T rcep/internal/core/event.SlabString[go.shape.[]uint8]", "rcep/internal/core/event.SlabString"},
		{"  4e2d20 T rcep/internal/core/event.Carve[go.shape.struct { rcep/internal/core/event._ [0]func(); rcep/internal/core/event.kind rcep/internal/core/event.Kind; rcep/internal/core/event.n uint64; rcep/internal/core/event.p unsafe.Pointer }]", "rcep/internal/core/event.Carve"},
		{"  4e2420 T rcep/internal/core/detect.(*keyIndex[go.shape.struct { rcep/internal/core/detect.buf []*rcep/internal/core/event.Instance; rcep/internal/core/detect.head int }]).drop", "rcep/internal/core/detect.keyIndex.drop"},
		{"  505e00 T rcep/internal/store.history[go.shape.struct { Parent string; rcep/internal/store.Period }].func2", "rcep/internal/store.history"},
		{"  4b1ec0 T rcep/internal/sim.Generate.func1", "rcep/internal/sim.Generate"},
		{"  4abf40 T rcep/internal/core/event.Batch.Sort.func1", "rcep/internal/core/event.Batch.Sort"},
		{"  4d98c0 T rcep/internal/core/detect.compilePrim.func2.1", "rcep/internal/core/detect.compilePrim"},
		{"  591fa0 T rcep/internal/wire.(*Server).Serve.gowrap1", "rcep/internal/wire.Server.Serve"},
		{"  4d00c0 T rcep/internal/core/event.intern[go.shape.string].deferwrap1", "rcep/internal/core/event.intern"},
		{"  50efa0 T rcep/internal/sqlmini.(*aggState).fold-fm", "rcep/internal/sqlmini.aggState.fold"},
		{"  4be180 T rcep/internal/lex.init", "rcep/internal/lex.init"},
		{"  5227a0 T rcep.New", "rcep.New"},
	} {
		sym, ok := nmTextSymbol(c.line)
		got, inModule := nmFuncKey(sym)
		if !ok || !inModule || got != c.want {
			t.Errorf("%q: key %q (text %v, in module %v); want %q", c.line, got, ok, inModule, c.want)
		}
	}
	for _, line := range []string{"  43c7a0 T runtime.main", "  6f3e40 R go:itab.*rcep/internal/wire.Server,io.Closer", "  7a1b00 D rcep/internal/epc.registry"} {
		if sym, ok := nmTextSymbol(line); ok {
			if key, in := nmFuncKey(sym); in {
				t.Errorf("%q: key %q; want it skipped", line, key)
			}
		}
	}
}

func TestReachExemptsOnlyEmptyMethods(t *testing.T) {
	src := `package p
func init() {}
func F() {}
func (T) isExpr() {}
func (*T) M() { F() }
func (g *G[K, V]) Drop() {}
func (g G[K]) Get() int { return 0 }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		fd := d.(*ast.FuncDecl)
		got = append(got, fmt.Sprintf("%s %v", declFuncKey("p", fd), reachExempt(fd)))
	}
	want := []string{"p.init true", "p.F false", "p.T.isExpr true", "p.T.M false", "p.G.Drop true", "p.G.Get false"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("got  %v\nwant %v", got, want)
	}
}

func TestReachListNamesOwners(t *testing.T) {
	if _, err := readReachList(reachListPath); err != nil {
		t.Fatal(err)
	}
}
