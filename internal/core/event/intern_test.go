package event

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// resolve returns the name sym stands for; ok is false for NoSymbol and
// symbols the table never assigned.
func resolve(it *Interner, sym Symbol) (string, bool) {
	if sym == NoSymbol || int(sym) > it.Len() {
		return "", false
	}
	return it.name(sym), true
}

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
		got, ok := resolve(it, syms[i])
		if !ok || got != w {
			t.Fatalf("resolve(%d) = %q, %v; want %q", syms[i], got, ok, w)
		}
	}
	if _, ok := resolve(it, NoSymbol); ok {
		t.Fatal("resolve(NoSymbol) succeeded")
	}
	if _, ok := resolve(it, Symbol(999)); ok {
		t.Fatal("resolve of an unassigned symbol succeeded")
	}
}

func TestInternerCanonReturnsOneInstance(t *testing.T) {
	it := NewInterner()
	a := it.Canon("reader-" + fmt.Sprint(7))
	b := it.Canon("reader-" + fmt.Sprint(7))
	if a != b {
		t.Fatalf("Canon returned different strings: %q vs %q", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("Canon returned two instances of one name")
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
				if got, ok := resolve(it, syms[g][i]); !ok || got != s {
					panic(fmt.Sprintf("resolve(%d) = %q, %v", syms[g][i], got, ok))
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

// TestInternerGrowsUnderReaders runs writers over overlapping name sets,
// past several slot-table growths and name-chunk boundaries, while readers
// resolve and canonicalise every symbol a writer has already returned; run
// under -race it checks that a reader finding a slot finds its name.
func TestInternerGrowsUnderReaders(t *testing.T) {
	const writers, readers, names = 4, 4, 3 * 1024
	it := NewInterner()
	copies := make([][]string, writers) // each writer's own instances
	syms := make([][]Symbol, writers)
	done := make([]atomic.Int64, writers) // syms[w][:done[w]] are published
	for w := range copies {
		copies[w] = make([]string, names)
		syms[w] = make([]Symbol, names)
		for i := range copies[w] {
			copies[w][i] = strings.Clone(fmt.Sprintf("urn:epc:id:sgtin:%d", i))
		}
	}
	order := func(w, k int) int { return (7*k + w*names/writers) % names } // writer w's k-th name
	var wg, rg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for pass := 0; ; pass++ {
				select {
				case <-stop:
					return
				default:
				}
				w := (r + pass) % writers
				n := int(done[w].Load())
				for k := 0; k < n; k++ {
					i := order(w, k)
					want := copies[w][i]
					got, ok := resolve(it, syms[w][i])
					if !ok || got != want || it.Canon(want) != got || it.CanonBytes([]byte(want)) != got {
						t.Errorf("symbol %d: resolve = %q, %v; want %q", syms[w][i], got, ok, want)
						return
					}
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < names; k++ {
				i := order(w, k)
				syms[w][i] = it.Intern(copies[w][i])
				done[w].Store(int64(k + 1))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if it.Len() != names {
		t.Fatalf("Len = %d, want %d", it.Len(), names)
	}
	seen := make([]bool, names+1)
	for i := 0; i < names; i++ {
		sym := syms[0][i]
		for w := 1; w < writers; w++ {
			if syms[w][i] != sym {
				t.Fatalf("name %d got symbols %d and %d", i, sym, syms[w][i])
			}
		}
		if sym == NoSymbol || int(sym) > names || seen[sym] {
			t.Fatalf("symbol %d of name %d is not one of a dense 1..%d", sym, i, names)
		}
		seen[sym] = true
		canon := it.Canon(strings.Clone(copies[0][i]))
		first := false // canon is one writer's instance, the same for every copy
		for w := 0; w < writers; w++ {
			first = first || unsafe.StringData(canon) == unsafe.StringData(copies[w][i])
			if c := it.Canon(copies[w][i]); unsafe.StringData(c) != unsafe.StringData(canon) {
				t.Fatalf("Canon of name %d returned two instances", i)
			}
		}
		if !first {
			t.Fatalf("Canon of name %d is not the instance a writer interned", i)
		}
	}
}

// TestInternerReadsAllocateNothing: a known name costs no allocation on
// any read path.
func TestInternerReadsAllocateNothing(t *testing.T) {
	it := NewInterner()
	for i := 0; i < 2000; i++ {
		it.Intern(fmt.Sprintf("epc-%d", i))
	}
	name := fmt.Sprintf("epc-%d", 1234)
	b := []byte(name)
	sym := it.Intern(name)
	for what, read := range map[string]func(){
		"Intern":     func() { it.Intern(name) },
		"Canon":      func() { it.Canon(name) },
		"CanonBytes": func() { it.CanonBytes(b) },
		"name":       func() { _ = it.name(sym) },
	} {
		if n := testing.AllocsPerRun(1000, read); n != 0 {
			t.Errorf("%s of a known name allocates %v times, want 0", what, n)
		}
	}
}

// TestAllocBudgetFirstSightNames: a first-seen name given as bytes costs
// a copy into the table's slab, not an allocation of its own. Names read
// back intact after the caller's buffer is overwritten, so the table never
// aliases it, and a name too long for the slab round-trips too.
func TestAllocBudgetFirstSightNames(t *testing.T) {
	const names, prefix = 4096, "urn:epc:id:gid:4711.1."
	render := func(buf []byte, i int) []byte {
		buf = append(buf[:0], prefix...)
		return strconv.AppendInt(buf, 1_000_000+int64(i), 10)
	}
	buf := make([]byte, 0, 64)
	perChunk := slabChunk / len(render(buf, 0))
	// NewInterner's 4 allocations, the slab's chunks, 2 per slot-table
	// doubling (64 to 8,192 slots) and 3 per directory chunk.
	budget := 4 + (names+perChunk-1)/perChunk + 2*7 + 3*(names>>chunkShift)
	allocs := testing.AllocsPerRun(1, func() {
		it := NewInterner()
		for i := 0; i < names; i++ {
			it.CanonBytes(render(buf, i))
		}
	})
	t.Logf("%v allocations for %d first-seen names, budget %d", allocs, names, budget)
	if allocs > float64(budget) {
		t.Fatalf("%d first-seen names allocate %v times, budget %d", names, allocs, budget)
	}

	it := NewInterner()
	long := strings.Repeat("x", slabChunk/8+1)
	got := make([]string, names+1)
	for i := range got {
		b := []byte(long)
		if i < names {
			b = render(buf, i)
		}
		got[i] = it.CanonBytes(b)
		for j := range b {
			b[j] = '#'
		}
	}
	for i, s := range got {
		want := long
		if i < names {
			want = string(render(nil, i))
		}
		if s != want {
			t.Fatalf("name %d reads %q after its source was overwritten, want %q", i, s, want)
		}
		if name, ok := resolve(it, Symbol(i+1)); !ok || name != want {
			t.Fatalf("symbol %d names %q, want %q", i+1, name, want)
		}
	}
}

// TestInternerBytesPerName bounds what the table retains per name beyond
// the name's own bytes: a name slot, a share of the slot table and of the
// chunk directory.
func TestInternerBytesPerName(t *testing.T) {
	const names = 1 << 16
	words := make([]string, names)
	for i := range words {
		words[i] = fmt.Sprintf("urn:epc:id:sgtin:0614141.%06d", i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	it := NewInterner()
	for _, w := range words {
		it.Intern(w)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / names
	runtime.KeepAlive(words)
	if it.Len() != names {
		t.Fatalf("Len = %d, want %d", it.Len(), names)
	}
	t.Logf("%.1f B retained per name", per)
	if per > 32 {
		t.Fatalf("the table retains %.1f B per name, want at most 32", per)
	}
}

// FuzzIntern checks the intern/resolve round trip and concurrent-ingest
// safety on arbitrary string sets: every interned string resolves to
// itself, equal strings get equal symbols, distinct strings get distinct
// dense symbols, and two more goroutines interning the same set
// concurrently, as strings and as bytes in a reused buffer, never perturb
// any of that. Run it under -race.
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
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // concurrent ingest of the same set
			defer wg.Done()
			for _, w := range words {
				it.Intern(w)
			}
		}()
		go func() { // and of the same bytes, from one reused buffer
			defer wg.Done()
			var buf []byte
			for _, w := range words {
				buf = append(buf[:0], w...)
				if got := it.CanonBytes(buf); got != w {
					t.Errorf("concurrent CanonBytes(%q) = %q", w, got)
				}
				for i := range buf {
					buf[i] = 0
				}
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
			if got, ok := resolve(it, sym); !ok || got != w {
				t.Fatalf("resolve(Intern(%q)) = %q, %v", w, got, ok)
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
		wg.Wait()
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
