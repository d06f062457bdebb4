package event

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

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

// A chunk holds the names of 1<<chunkShift consecutive symbols. It never
// moves, so a name written into it stays readable through any directory
// that lists it.
const chunkShift = 10

type chunk [1 << chunkShift]string

// Interner maps strings to dense Symbols. It is safe for concurrent use:
// ingest entry points (wire connections, LLRP adapters, shard workers)
// intern concurrently while detection engines resolve.
//
// Concurrency contract (DESIGN.md §9): readers take no lock and allocate
// nothing (Intern, Canon and CanonBytes of a known name, Len). Writers,
// first sightings only, serialise on mu and write the name into its chunk
// before they store its symbol in a slot, so a reader that finds a slot
// finds the name. A string name is kept as given; a []byte one is copied
// into the table's byte slab first. Symbols are assigned once per distinct
// string, in first-sight order, and never change or get reused. The table
// only grows; it never evicts (see docs/OPERATIONS.md for sizing).
type Interner struct {
	mu    sync.Mutex
	slab  []byte // CanonBytes' first sightings, under mu (SlabString)
	seed  maphash.Seed
	n     atomic.Uint32                   // symbols assigned: 1..n
	dir   atomic.Pointer[[]*chunk]        // (*dir)[(sym-1)>>chunkShift] holds sym's name
	slots atomic.Pointer[[]atomic.Uint32] // open addressing, at most 3/4 full
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	it := &Interner{seed: maphash.MakeSeed()}
	slots := make([]atomic.Uint32, 64)
	it.dir.Store(new([]*chunk))
	it.slots.Store(&slots)
	return it
}

// name returns the string sym names; sym must be assigned.
func (it *Interner) name(sym Symbol) string {
	return (*it.dir.Load())[(sym-1)>>chunkShift][(sym-1)&(1<<chunkShift-1)]
}

// find probes slots linearly from s's hash h, up to an empty slot.
func find[T string | []byte](it *Interner, slots []atomic.Uint32, h uint64, s T) (Symbol, string) {
	mask := uint64(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sym := Symbol(slots[i].Load())
		if sym == NoSymbol {
			return NoSymbol, ""
		}
		if name := it.name(sym); name == string(s) {
			return sym, name
		}
	}
}

// intern returns s's symbol and first-interned instance, assigning the
// next symbol on first sight. Only then is s kept: a string as given, a
// []byte (slabbed) copied into the slab.
func intern[T string | []byte](it *Interner, h uint64, s T, slabbed bool) (Symbol, string) {
	if sym, name := find(it, *it.slots.Load(), h, s); sym != NoSymbol {
		return sym, name
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	slots := *it.slots.Load()
	if sym, name := find(it, slots, h, s); sym != NoSymbol { // another writer won
		return sym, name
	}
	sym, name := Symbol(it.n.Load()+1), ""
	if slabbed {
		name = SlabString(&it.slab, s)
	} else {
		name = string(s)
	}
	if 4*uint64(sym) > 3*uint64(len(slots)) {
		slots = it.grow(slots)
	}
	dir := *it.dir.Load()
	if c := int(sym-1) >> chunkShift; c == len(dir) {
		grown := append(dir[:c:c], new(chunk)) // only a new chunk allocates
		it.dir.Store(&grown)
		dir = grown
	}
	dir[(sym-1)>>chunkShift][(sym-1)&(1<<chunkShift-1)] = name // the name before its slot
	it.n.Store(uint32(sym))
	place(slots, h, sym)
	return sym, name
}

// grow publishes a slot table twice the size of slots, holding every
// assigned symbol. A reader still probing the old one misses only names
// interned since, and finds them under the lock.
func (it *Interner) grow(slots []atomic.Uint32) []atomic.Uint32 {
	bigger := make([]atomic.Uint32, 2*len(slots))
	for sym := Symbol(1); sym <= Symbol(it.n.Load()); sym++ {
		place(bigger, maphash.String(it.seed, it.name(sym)), sym)
	}
	it.slots.Store(&bigger)
	return bigger
}

// place stores sym in the first empty slot from h.
func place(slots []atomic.Uint32, h uint64, sym Symbol) {
	mask := uint64(len(slots) - 1)
	i := h & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].Store(uint32(sym))
}

// Intern returns the symbol for s, assigning the next dense symbol on
// first sight.
func (it *Interner) Intern(s string) Symbol {
	sym, _ := intern(it, maphash.String(it.seed, s), s, false)
	return sym
}

// Canon returns the canonical (first-interned) instance of s. Ingest entry
// points that decode strings from the network (wire frames, LLRP EPC hex)
// pass each attribute through Canon so long-lived engine state retains one
// string instance per distinct EPC instead of one per observation.
func (it *Interner) Canon(s string) string {
	_, name := intern(it, maphash.String(it.seed, s), s, false)
	return name
}

// CanonBytes is Canon for a name held in a byte buffer (an EPC rendered
// into a reused one): a name the table holds costs a lookup and no
// allocation, and only a first sighting copies b, into the table's slab.
func (it *Interner) CanonBytes(b []byte) string {
	_, name := intern(it, maphash.Bytes(it.seed, b), b, true)
	return name
}

// Len returns the number of interned strings.
func (it *Interner) Len() int { return int(it.n.Load()) }
