//go:build reach

package rcep

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestReachability builds every main package of the module without inlining,
// reads the module's text symbols with `go tool nm`, and fails on any
// declared function no binary links that reachListPath does not name, and on
// any listed function that is now linked or no longer declared. Run it with
//
//	go test -tags reach -run TestReachability -count=1 .
func TestReachability(t *testing.T) {
	out := t.TempDir()
	var mains []string
	declared := map[string]string{} // key -> file:line
	fset := token.NewFileSet()
	for _, line := range goCmd(t, "list", "-f", "{{.Name}}|{{.ImportPath}}|{{.Dir}}|{{join .GoFiles \" \"}}", "./...") {
		f := strings.SplitN(line, "|", 4)
		name, path, dir, files := f[0], f[1], f[2], strings.Fields(f[3])
		if name == "main" {
			mains = append(mains, path)
			continue
		}
		for _, file := range files {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range af.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && !reachExempt(fd) {
					declared[declFuncKey(path, fd)] = fset.Position(fd.Pos()).String()
				}
			}
		}
	}
	goCmd(t, append([]string{"build", "-gcflags=all=-l", "-o", out + "/"}, mains...)...)

	linked := map[string]bool{}
	bins, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		for _, line := range goCmd(t, "tool", "nm", filepath.Join(out, b.Name())) {
			if sym, ok := nmTextSymbol(line); ok {
				if key, ok := nmFuncKey(sym); ok {
					linked[key] = true
				}
			}
		}
	}
	if len(linked) == 0 {
		t.Fatal("no module symbols read from the binaries")
	}

	list, err := readReachList(reachListPath)
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for key, pos := range declared {
		if !linked[key] && list[key] == "" {
			bad = append(bad, "unlinked and not listed in "+reachListPath+": "+key+" ("+pos+")")
		}
	}
	for key := range list {
		switch {
		case declared[key] == "":
			bad = append(bad, "listed but no longer declared, delete its line from "+reachListPath+": "+key)
		case linked[key]:
			bad = append(bad, "listed but now linked, delete its line from "+reachListPath+": "+key+" ("+declared[key]+")")
		}
	}
	slices.Sort(bad)
	for _, msg := range bad {
		t.Error(msg)
	}
	t.Logf("%d main packages, %d declared functions, %d listed as unlinked", len(mains), len(declared), len(list))
}

// goCmd runs the go command and returns its output lines.
func goCmd(t *testing.T, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}
