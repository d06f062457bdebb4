package detect

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

func heapInit(h *pseudoHeap) { heap.Init(h) }

// Checkpointing serializes the engine's complete runtime state — pending
// constituent buffers, occurrence histories with chronicle-consumption
// marks, open aperiodic sequences, the pseudo-event queue, clocks and
// counters — so a restarted process resumes detection mid-window. The
// event graph itself is NOT serialized: rebuild it from the same rules in
// the same order; a structural fingerprint guards against mismatches.

type ckInstance struct {
	Begin event.Time     `json:"b"`
	End   event.Time     `json:"e"`
	Seq   uint64         `json:"q"`
	Binds event.Bindings `json:"v,omitempty"`
}

func toCk(in *event.Instance) ckInstance {
	return ckInstance{Begin: in.Begin, End: in.End, Seq: in.Seq, Binds: in.Binds}
}

func fromCk(c ckInstance) *event.Instance {
	return &event.Instance{Begin: c.Begin, End: c.End, Seq: c.Seq, Binds: c.Binds}
}

type ckHistory struct {
	Entries  []ckInstance  `json:"entries"`
	Consumed map[int][]int `json:"consumed,omitempty"` // consumer → entry indices
}

type ckOpenSeq struct {
	Elems   []event.Bindings `json:"elems"`
	Starts  []event.Time     `json:"starts,omitempty"`
	Begin   event.Time       `json:"begin"`
	Last    event.Time       `json:"last"`
	Version uint64           `json:"version"`
	// Aggs carries the guard's running aggregate accumulators, one per
	// aggregated variable in guardState.aggVars order. The shard/v1 and
	// cluster/v1 formats need no version bump: a guarded node's
	// canonical key (and so the graph fingerprint) differs from its
	// unguarded twin, so old checkpoints can never restore onto a
	// guarded graph.
	Aggs []ckAgg `json:"aggs,omitempty"`
}

// ckAgg is one checkpointed aggregate accumulator.
type ckAgg struct {
	Var string       `json:"var"`
	Acc event.AggAcc `json:"acc"`
}

type ckNode struct {
	ID    int          `json:"id"`
	Left  []ckInstance `json:"left,omitempty"`
	Right []ckInstance `json:"right,omitempty"`
	Hist  *ckHistory   `json:"hist,omitempty"`
	Open  *ckOpenSeq   `json:"open,omitempty"`
}

type ckPseudo struct {
	Exec     event.Time  `json:"exec"`
	Seq      uint64      `json:"seq"`
	NodeID   int         `json:"node"`
	Strategy uint8       `json:"strategy"`
	Payload  *ckInstance `json:"payload,omitempty"`
	W0       event.Time  `json:"w0"`
	W1       event.Time  `json:"w1"`
	Version  uint64      `json:"version,omitempty"`
}

type checkpoint struct {
	Fingerprint string     `json:"fingerprint"`
	Now         event.Time `json:"now"`
	Seq         uint64     `json:"seq"`
	PSeq        uint64     `json:"pseq"`
	Metrics     Metrics    `json:"metrics"`
	Nodes       []ckNode   `json:"nodes,omitempty"`
	Pseudo      []ckPseudo `json:"pseudo,omitempty"`
}

// SaveCheckpoint writes the runtime state as JSON, as it stands: reclaim
// events fire at instants fixed by virtual time alone, so the bytes depend
// only on what was ingested and how far the clock has moved. Armed reclaim
// events are not written; RestoreCheckpoint re-arms the nodes it fills.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	ck := checkpoint{
		Fingerprint: e.g.Fingerprint(),
		Now:         e.now,
		Seq:         e.seq,
		PSeq:        e.pseq,
		Metrics:     e.m,
	}
	for _, n := range e.g.Nodes {
		st := e.states[n.ID]
		cn := ckNode{ID: n.ID}
		dirty := false
		if st.left != nil && st.left.len() > 0 {
			for _, in := range st.left.all() {
				cn.Left = append(cn.Left, toCk(in))
			}
			dirty = true
		}
		if st.right != nil && st.right.len() > 0 {
			for _, in := range st.right.all() {
				cn.Right = append(cn.Right, toCk(in))
			}
			dirty = true
		}
		if st.hist != nil && st.hist.len() > 0 {
			h := &ckHistory{}
			index := map[*event.Instance]int{}
			for i, in := range st.hist.entries.items() {
				h.Entries = append(h.Entries, toCk(in))
				index[in] = i
			}
			for consumer, set := range st.hist.consumed {
				for in := range set {
					if i, ok := index[in]; ok {
						if h.Consumed == nil {
							h.Consumed = map[int][]int{}
						}
						h.Consumed[consumer] = append(h.Consumed[consumer], i)
					}
				}
			}
			for _, idxs := range h.Consumed {
				slices.Sort(idxs) // a set, ranged in map order
			}
			cn.Hist = h
			dirty = true
		}
		if st.open != nil {
			cn.Open = &ckOpenSeq{
				Elems: st.open.elems, Starts: st.open.starts,
				Begin: st.open.begin,
				Last:  st.open.last, Version: st.open.version,
			}
			if st.open.accs != nil {
				for i, v := range st.guard.aggVars {
					cn.Open.Aggs = append(cn.Open.Aggs, ckAgg{Var: v, Acc: st.open.accs[i]})
				}
			}
			dirty = true
		}
		if dirty {
			ck.Nodes = append(ck.Nodes, cn)
		}
	}
	for _, ps := range e.pq {
		cp := ckPseudo{
			Exec: ps.exec, Seq: ps.seq, NodeID: ps.node.ID,
			Strategy: uint8(ps.strategy), W0: ps.w0, W1: ps.w1, Version: ps.version,
		}
		if ps.payload != nil {
			p := toCk(ps.payload)
			cp.Payload = &p
		}
		ck.Pseudo = append(ck.Pseudo, cp)
	}
	return json.NewEncoder(w).Encode(ck)
}

// RestoreCheckpoint loads runtime state into a freshly built engine whose
// graph has the same fingerprint (same rules, same order, same options).
// The engine must not have ingested anything yet.
func (e *Engine) RestoreCheckpoint(r io.Reader) error {
	if e.m.Observations != 0 || e.seq != 0 {
		return fmt.Errorf("detect: restore requires a fresh engine")
	}
	var ck checkpoint
	if err := json.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("detect: restore: %w", err)
	}
	if got := e.g.Fingerprint(); got != ck.Fingerprint {
		return fmt.Errorf("detect: restore: graph fingerprint %s does not match checkpoint %s (different rules?)", got, ck.Fingerprint)
	}
	e.now = ck.Now
	e.seq = ck.Seq
	e.pseq = ck.PSeq
	e.m = ck.Metrics
	nodeByID := map[int]*graph.Node{}
	for _, n := range e.g.Nodes {
		nodeByID[n.ID] = n
	}
	for _, cn := range ck.Nodes {
		if cn.ID < 0 || cn.ID >= len(e.states) || e.states[cn.ID] == nil {
			return fmt.Errorf("detect: restore: unknown node %d", cn.ID)
		}
		st := e.states[cn.ID]
		for _, ci := range cn.Left {
			if st.left == nil {
				return fmt.Errorf("detect: restore: node %d has no left buffer", cn.ID)
			}
			st.left.add(fromCk(ci))
		}
		for _, ci := range cn.Right {
			if st.right == nil {
				return fmt.Errorf("detect: restore: node %d has no right buffer", cn.ID)
			}
			st.right.add(fromCk(ci))
		}
		if cn.Hist != nil {
			if st.hist == nil {
				return fmt.Errorf("detect: restore: node %d keeps no history", cn.ID)
			}
			insts := make([]*event.Instance, len(cn.Hist.Entries))
			for i, ci := range cn.Hist.Entries {
				insts[i] = fromCk(ci)
				st.hist.add(insts[i])
			}
			for consumer, idxs := range cn.Hist.Consumed {
				for _, i := range idxs {
					if i < 0 || i >= len(insts) {
						return fmt.Errorf("detect: restore: node %d consumed index %d out of range", cn.ID, i)
					}
					st.hist.markConsumed(consumer, insts[i])
				}
			}
		}
		if cn.Open != nil {
			st.open = &openSeq{
				elems: cn.Open.Elems, starts: cn.Open.Starts,
				begin: cn.Open.Begin,
				last:  cn.Open.Last, version: cn.Open.Version,
			}
			// A guarded node's live open sequence always carries exactly
			// one accumulator per aggregated variable; anything else is
			// corruption.
			var aggVars []string
			if st.guard != nil {
				aggVars = st.guard.aggVars
			}
			if len(cn.Open.Aggs) != len(aggVars) {
				return fmt.Errorf("detect: restore: node %d open sequence has %d aggregate accumulator(s), want %d", cn.ID, len(cn.Open.Aggs), len(aggVars))
			}
			if len(aggVars) > 0 {
				st.open.accs = make([]event.AggAcc, len(aggVars))
				for i, ca := range cn.Open.Aggs {
					if ca.Var != aggVars[i] {
						return fmt.Errorf("detect: restore: node %d aggregate accumulator %d is for variable %q, want %q", cn.ID, i, ca.Var, aggVars[i])
					}
					if ca.Acc.N < 0 || ca.Acc.N > int64(len(cn.Open.Elems)) {
						return fmt.Errorf("detect: restore: node %d aggregate accumulator %q counts %d values over %d element(s)", cn.ID, ca.Var, ca.Acc.N, len(cn.Open.Elems))
					}
					st.open.accs[i] = ca.Acc
				}
			}
		}
	}
	for _, cp := range ck.Pseudo {
		n, ok := nodeByID[cp.NodeID]
		if !ok {
			return fmt.Errorf("detect: restore: pseudo event for unknown node %d", cp.NodeID)
		}
		ps := &pseudoEvent{
			exec: cp.Exec, seq: cp.Seq, node: n,
			strategy: graph.PseudoStrategy(cp.Strategy),
			w0:       cp.W0, w1: cp.W1, version: cp.Version,
		}
		if cp.Payload != nil {
			ps.payload = fromCk(*cp.Payload)
		}
		e.pq = append(e.pq, ps)
	}
	heapInit(&e.pq)
	// Each filled node's reclaim event goes at the first multiple of its
	// period not before the clock: an uninterrupted engine either still
	// holds that event or ran it at this instant, and a sweep drops only
	// what no future arrival can use.
	for _, st := range e.states {
		if st != nil && st.expiring() {
			e.arm(st, e.now-1)
		}
	}
	return nil
}
