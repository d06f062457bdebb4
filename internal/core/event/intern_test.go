package event

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

func TestInternerRoundTrip(t *testing.T) {
	it := NewInterner()
	if it.Len() != 0 {
		t.Fatalf("fresh interner has Len %d", it.Len())
	}
	words := []string{"r1", "r2", "", "r1", "pack_item_L7", "r2"}
	syms := make([]Symbol, len(words))
	for i, w := range words {
		syms[i] = it.Intern(w)
		if syms[i] == NoSymbol {
			t.Fatalf("Intern(%q) returned NoSymbol", w)
		}
	}
	if syms[0] != syms[3] || syms[1] != syms[5] {
		t.Fatalf("equal strings got distinct symbols: %v", syms)
	}
	if syms[0] == syms[1] || syms[0] == syms[2] {
		t.Fatalf("distinct strings share a symbol: %v", syms)
	}
	if it.Len() != 4 {
		t.Fatalf("Len = %d, want 4", it.Len())
	}
	for i, w := range words {
		got, ok := it.Resolve(syms[i])
		if !ok || got != w {
			t.Fatalf("Resolve(%d) = %q, %v; want %q", syms[i], got, ok, w)
		}
	}
	if _, ok := it.Resolve(NoSymbol); ok {
		t.Fatal("Resolve(NoSymbol) succeeded")
	}
	if _, ok := it.Resolve(Symbol(999)); ok {
		t.Fatal("Resolve of unassigned symbol succeeded")
	}
	if _, ok := it.Lookup("never-seen"); ok {
		t.Fatal("Lookup of unseen string succeeded")
	}
	if sym, ok := it.Lookup("r2"); !ok || sym != syms[1] {
		t.Fatalf("Lookup(r2) = %d, %v; want %d", sym, ok, syms[1])
	}
}

func TestInternerCanonReturnsOneInstance(t *testing.T) {
	it := NewInterner()
	a := it.Canon("reader-" + fmt.Sprint(7))
	b := it.Canon("reader-" + fmt.Sprint(7))
	if a != b {
		t.Fatalf("Canon returned different strings: %q vs %q", a, b)
	}
	o := it.CanonObservation(Observation{Reader: "reader-" + fmt.Sprint(7), Object: "obj", At: 3})
	if o.Reader != a || o.Object != "obj" || o.At != 3 {
		t.Fatalf("CanonObservation mangled the observation: %+v", o)
	}
}

// TestInternerConcurrent hammers one table from many goroutines; run under
// -race it proves the concurrency contract of DESIGN.md §9.
func TestInternerConcurrent(t *testing.T) {
	it := NewInterner()
	const goroutines, strings = 8, 200
	var wg sync.WaitGroup
	syms := make([][]Symbol, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			syms[g] = make([]Symbol, strings)
			for i := 0; i < strings; i++ {
				s := fmt.Sprintf("epc-%d", i) // same set from every goroutine
				syms[g][i] = it.Intern(s)
				if got, ok := it.Resolve(syms[g][i]); !ok || got != s {
					panic(fmt.Sprintf("Resolve(%d) = %q, %v", syms[g][i], got, ok))
				}
			}
		}(g)
	}
	wg.Wait()
	if it.Len() != strings {
		t.Fatalf("Len = %d, want %d", it.Len(), strings)
	}
	for g := 1; g < goroutines; g++ {
		for i := range syms[g] {
			if syms[g][i] != syms[0][i] {
				t.Fatalf("goroutines disagree on symbol for epc-%d: %d vs %d", i, syms[0][i], syms[g][i])
			}
		}
	}
}

// FuzzIntern checks the intern/resolve round trip and concurrent-ingest
// safety on arbitrary string sets: every interned string resolves to
// itself, equal strings get equal symbols, distinct strings get distinct
// dense symbols, and a second goroutine interning the same set concurrently
// never perturbs any of that.
func FuzzIntern(f *testing.F) {
	f.Add([]byte("r1\x00r2\x00pack_item_L1\x00r1"))
	f.Add([]byte(""))
	f.Add([]byte("\x00\x00a\x00a\x00b"))
	f.Add([]byte("urn:epc:id:gid:10.1000.5"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var words []string
		start := 0
		for i := 0; i <= len(data); i++ {
			if i == len(data) || data[i] == 0 {
				words = append(words, string(data[start:i]))
				start = i + 1
			}
		}
		it, fresh := NewInterner(), NewInterner()
		done := make(chan struct{})
		go func() { // concurrent ingest of the same set
			defer close(done)
			for _, w := range words {
				it.Intern(w)
			}
		}()
		bySym := map[Symbol]string{}
		byStr := map[string]Symbol{}
		for _, w := range words {
			sym := it.Intern(w)
			if sym == NoSymbol {
				t.Fatalf("Intern(%q) = NoSymbol", w)
			}
			if prev, ok := byStr[w]; ok && prev != sym {
				t.Fatalf("Intern(%q) unstable: %d then %d", w, prev, sym)
			}
			byStr[w] = sym
			if prev, ok := bySym[sym]; ok && prev != w {
				t.Fatalf("symbol %d maps to %q and %q", sym, prev, w)
			}
			bySym[sym] = w
			if got, ok := it.Resolve(sym); !ok || got != w {
				t.Fatalf("Resolve(Intern(%q)) = %q, %v", w, got, ok)
			}
			if got := it.Canon(w); got != w {
				t.Fatalf("Canon(%q) = %q", w, got)
			}
			// CanonBytes returns the canonical instance itself, whether
			// the table holds the name already (it) or sees it first here
			// (fresh).
			for _, in := range []*Interner{it, fresh} {
				got := in.CanonBytes([]byte(w))
				if canon := in.Canon(w); got != w || unsafe.StringData(got) != unsafe.StringData(canon) {
					t.Fatalf("CanonBytes(%q) = %q, not the instance Canon returns", w, got)
				}
			}
		}
		<-done
		if it.Len() != len(byStr) {
			t.Fatalf("Len = %d, want %d distinct strings", it.Len(), len(byStr))
		}
		// Symbols are dense: exactly 1..Len assigned.
		for sym := range bySym {
			if int(sym) > it.Len() {
				t.Fatalf("symbol %d exceeds Len %d — not dense", sym, it.Len())
			}
		}
	})
}
