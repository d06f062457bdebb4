package event

import "sync"

// Symbol is a dense integer ID for an interned string (reader EPCs, object
// EPCs, location names). Symbols are assigned sequentially from 1 by an
// Interner; NoSymbol (0) means "not interned" and never names a string.
//
// Two strings interned in the same table are equal iff their symbols are
// equal, so hot-path comparisons (primitive pattern dispatch, literal
// checks) are single integer compares instead of byte-wise string
// comparisons. Density matters as much as speed: per-symbol caches (reader
// groups, object types) can be flat slices indexed by Symbol instead of
// hash maps.
type Symbol uint32

// NoSymbol is the zero Symbol: "this string is not interned" / "this
// pattern position is unconstrained". Interners never assign it.
const NoSymbol Symbol = 0

// Interner maps strings to dense Symbols. It is safe for concurrent use:
// ingest entry points (wire connections, LLRP adapters, shard workers)
// intern concurrently while detection engines resolve.
//
// Concurrency contract (DESIGN.md §9): Intern, Lookup, Resolve and Canon
// may be called from any goroutine. Symbols are assigned exactly once per
// distinct string and never change or get reused, so a symbol observed by
// one goroutine resolves to the same string forever on every goroutine.
// The table only grows; it never evicts (readers are a small fixed set per
// deployment, objects grow with the distinct tag population — see
// docs/OPERATIONS.md for sizing).
type Interner struct {
	mu   sync.RWMutex
	ids  map[string]Symbol
	strs []string // strs[sym] = interned string; strs[0] unused
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{
		ids:  make(map[string]Symbol, 64),
		strs: make([]string, 1, 65),
	}
}

// Intern returns the symbol for s, assigning the next dense symbol on
// first sight.
func (it *Interner) Intern(s string) Symbol {
	it.mu.RLock()
	sym, ok := it.ids[s]
	it.mu.RUnlock()
	if ok {
		return sym
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if sym, ok = it.ids[s]; ok { // lost the race to another writer
		return sym
	}
	sym = Symbol(len(it.strs))
	it.ids[s] = sym
	it.strs = append(it.strs, s)
	return sym
}

// Lookup returns the symbol for s without assigning one.
func (it *Interner) Lookup(s string) (Symbol, bool) {
	it.mu.RLock()
	sym, ok := it.ids[s]
	it.mu.RUnlock()
	return sym, ok
}

// Resolve returns the string a symbol names. ok is false for NoSymbol and
// symbols this table never assigned.
func (it *Interner) Resolve(sym Symbol) (string, bool) {
	it.mu.RLock()
	defer it.mu.RUnlock()
	if sym == NoSymbol || int(sym) >= len(it.strs) {
		return "", false
	}
	return it.strs[sym], true
}

// Canon returns the canonical (first-interned) instance of s. Ingest entry
// points that decode strings from the network (wire frames, LLRP EPC hex)
// pass each attribute through Canon so long-lived engine state retains one
// string instance per distinct EPC instead of one per observation.
func (it *Interner) Canon(s string) string {
	sym := it.Intern(s)
	it.mu.RLock()
	defer it.mu.RUnlock()
	return it.strs[sym]
}

// CanonBytes is Canon for a name held in a byte buffer (an EPC rendered
// into a reused one): a name the table holds costs a lookup and no
// allocation, and only a first sighting copies b into a string.
func (it *Interner) CanonBytes(b []byte) string {
	it.mu.RLock()
	sym, ok := it.ids[string(b)]
	s := it.strs[sym]
	it.mu.RUnlock()
	if ok {
		return s
	}
	return it.Canon(string(b))
}

// CanonObservation canonicalizes an observation's reader and object
// strings in one call (see Canon).
func (it *Interner) CanonObservation(o Observation) Observation {
	o.Reader = it.Canon(o.Reader)
	o.Object = it.Canon(o.Object)
	return o
}

// Len returns the number of interned strings.
func (it *Interner) Len() int {
	it.mu.RLock()
	defer it.mu.RUnlock()
	return len(it.strs) - 1
}
