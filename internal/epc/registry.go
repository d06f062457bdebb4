package epc

import "sync"

// Registry is a user mapping for the type(o) function of paper §2.1
// ("the type can be extracted from its EPC value with a user-defined
// extraction function, or specified by a user with a mapping function"):
// it maps GID-96 object classes to types. Its TypeOf method plugs into
// rcep.Config.TypeOf, the paper's hook; a caller who types objects some
// other way supplies its own function there.
type Registry struct {
	mu       sync.RWMutex
	gidClass map[uint64]string // GID object class → type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gidClass: map[uint64]string{}}
}

// MapGIDClass assigns a type to every GID-96 EPC with the given object
// class.
func (r *Registry) MapGIDClass(class uint64, typ string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gidClass[class] = typ
}

// TypeOf resolves the type of an object identifier: a GID-96 EPC in hex
// form whose object class is mapped yields that class's type, and every
// other object yields "".
func (r *Registry) TypeOf(object string) string {
	b, err := ParseHex(object)
	if err != nil {
		return ""
	}
	g, err := DecodeGID(b)
	if err != nil {
		return ""
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gidClass[g.Class]
}
