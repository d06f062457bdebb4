package detect

import (
	"cmp"
	"slices"

	"rcep/internal/core/graph"
)

// NodeState is an observability snapshot of one graph node's runtime
// state; useful for debugging retention and buffer growth in long runs.
type NodeState struct {
	ID           int
	Kind         graph.Kind
	Mode         graph.Mode
	LeftBuffer   int // pending initiators / AND left side
	RightBuffer  int // waiting terminators / AND right side
	History      int // retained occurrences for window queries
	OpenSequence int // elements in the current open SEQ+/TSEQ+ run
	Description  string
}

// Snapshot returns the runtime state of every graph node, ordered by node
// ID, plus the number of pending pseudo events (armed reclaim events are
// not counted).
func (e *Engine) Snapshot() ([]NodeState, int) {
	out := make([]NodeState, 0, len(e.g.Nodes))
	for _, n := range e.g.Nodes {
		st := e.states[n.ID]
		ns := NodeState{
			ID:          n.ID,
			Kind:        n.Kind,
			Mode:        n.Mode,
			Description: n.String(),
		}
		if st.left != nil {
			ns.LeftBuffer = st.left.len()
		}
		if st.right != nil {
			ns.RightBuffer = st.right.len()
		}
		if st.hist != nil {
			ns.History = st.hist.len()
		}
		if st.open != nil {
			ns.OpenSequence = len(st.open.elems)
		}
		out = append(out, ns)
	}
	slices.SortFunc(out, func(a, b NodeState) int { return cmp.Compare(a.ID, b.ID) })
	return out, len(e.pq)
}
