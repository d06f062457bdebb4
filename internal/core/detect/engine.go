package detect

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// ErrOutOfOrder is returned by Ingest when an observation's timestamp
// precedes the engine's current time. Use stream.Reorder upstream for
// sources that deliver out of order.
var ErrOutOfOrder = errors.New("detect: observation out of timestamp order")

// Config configures an Engine.
type Config struct {
	// Graph is the finalized event graph (graph.Builder.Finalize).
	Graph *graph.Graph

	// Groups maps a reader EPC to the groups it belongs to. When nil,
	// every reader is its own group (paper §2.1 default). The engine
	// calls it once per reader it meets, possibly from several shard
	// workers at once, and only reads the result, so a function may
	// return one shared slice per reader.
	Groups func(reader string) []string

	// TypeOf maps an object EPC to its type name, e.g. "laptop". When
	// nil, type predicates never match.
	TypeOf func(object string) string

	// OnDetect is invoked synchronously for every rule whose event part
	// is detected, with the detected complex event instance.
	OnDetect func(ruleID int, inst *event.Instance)

	// Limits bounds per-node state; the zero value is unbounded.
	Limits

	// Interner supplies a shared intern table — shard engines pass one
	// table to every worker so symbols agree across shards. Nil gives the
	// engine a private table.
	Interner *event.Interner
}

// Limits bounds per-node engine state for unruly inputs. Every layer that
// builds detection engines embeds it and passes it down whole. Zero fields
// keep the paper's unbounded semantics; evictions are lossy and counted in
// Metrics.Dropped.
type Limits struct {
	// MaxPartitionBuffer, when positive, bounds each join partition of
	// every node's pending-instance buffers: the oldest instance is
	// evicted past the cap and counted in Metrics.Dropped.
	MaxPartitionBuffer int

	// MaxHistory, when positive, bounds each node's retained occurrence
	// history the same way.
	MaxHistory int

	// MaxOpenSequence, when positive, bounds an open SEQ+/TSEQ+ run: an
	// input stream that never violates the adjacency bound (a conveyor
	// that never pauses) otherwise grows the run without limit. On
	// overflow the older half of the run is discarded (counted in
	// Metrics.Dropped). Prefer WITHIN bounds on the sequence (paper
	// Fig. 6b) — this cap is the backstop.
	MaxOpenSequence int
}

// Metrics counts engine activity; useful in tests and benchmarks.
type Metrics struct {
	Observations    uint64 // observations ingested
	PlanProbes      uint64 // primitive patterns probed (dispatch list lengths summed)
	PrimMatches     uint64 // primitive pattern matches
	Emitted         uint64 // event instances emitted by graph nodes
	PseudoScheduled uint64 // pseudo events scheduled
	PseudoFired     uint64 // pseudo events executed
	Detections      uint64 // rule-level detections delivered
	Dropped         uint64 // instances evicted by buffer/history caps
}

// Engine is the RCEDA complex event detection engine. It is not safe for
// concurrent use; feed it from a single goroutine.
type Engine struct {
	g        *graph.Graph
	groups   func(string) []string
	typeOf   func(string) string
	onDetect func(int, *event.Instance)

	states  []*nodeState
	maxOpen int
	pq      pseudoHeap
	rq      reclaimHeap // armed reclaim events (DESIGN.md §12)
	now     event.Time
	seq     uint64 // instance arrival counter
	pseq    uint64 // pseudo scheduling counter
	m       Metrics

	// Prepared hot path (compile.go). plans holds every live primitive
	// plan in node-ID order; dispatch maps each reader Symbol the engine
	// has seen to the plans that reader can match, built lazily by
	// plansFor; groupsBySym/typeBySym are flat per-symbol memoizations of
	// the group(r) and type(o) functions — deployment configuration,
	// constant for the engine's lifetime (paper §2.1); filterPool and
	// psPool are freelists for transient query filters and fired pseudo
	// events.
	intern      *event.Interner
	plans       []*primPlan
	dispatch    map[event.Symbol][]*primPlan
	groupsBySym [][]string
	groupsSet   []bool
	typeBySym   []string
	typeSet     []bool
	filterPool  []event.Bindings
	psPool      []*pseudoEvent

	// slab holds the hot-path arenas (DESIGN.md §12).
	slab slabs

	// batchScratch is the engine-owned sort buffer for IngestBatch, so an
	// unsorted batch costs no allocation after the first.
	batchScratch []event.Observation
}

// slabs are the engine's hot-path arenas (DESIGN.md §12): instances,
// binding arrays and list values are carved out of chunks instead of
// malloc'd one by one. A full chunk is abandoned, never recycled: its
// pieces keep it alive and it is collected with them, which preserves the
// no-aliasing contract of TestPooledNoAliasingIntoDetections. A piece in
// history pins its whole chunk, so the sizes (elements per chunk, one
// malloc each) trade allocations for retained heap.
type slabs struct {
	inst  []event.Instance
	binds []event.Binding
	vals  []event.Value
}

const instSlabSize, bindSlabSize, valSlabSize = 64, 256, 256

// Bindings and Values make slabs the event.Allocator of CollectLists.
func (s *slabs) Bindings(n int) event.Bindings { return event.Carve(&s.binds, n, bindSlabSize) }
func (s *slabs) Values(n int) []event.Value    { return event.Carve(&s.vals, n, valSlabSize) }

// newInstance carves an event instance out of the instance slab.
func (e *Engine) newInstance(begin, end event.Time, binds event.Bindings, seq uint64) *event.Instance {
	in := &event.Carve(&e.slab.inst, 1, instSlabSize)[0]
	*in = event.Instance{Begin: begin, End: end, Binds: binds, Seq: seq}
	return in
}

// mergeBinds is Bindings.Merge allocating its result from the slab.
func (e *Engine) mergeBinds(b, o event.Bindings) event.Bindings {
	if len(b) == 0 && len(o) == 0 {
		return nil
	}
	m := e.slab.Bindings(len(b) + len(o))[:0]
	i, j := 0, 0
	for i < len(b) || j < len(o) {
		switch {
		case j >= len(o):
			m = append(m, b[i])
			i++
		case i >= len(b):
			m = append(m, o[j])
			j++
		case b[i].Var < o[j].Var:
			m = append(m, b[i])
			i++
		case b[i].Var > o[j].Var:
			m = append(m, o[j])
			j++
		default:
			m = append(m, o[j])
			i++
			j++
		}
	}
	return m
}

// nodeState is the per-node runtime state.
type nodeState struct {
	n *graph.Node

	// left and right buffer pending constituent instances for binary
	// constructors (And, Seq). right is nil when terminators never wait.
	left, right *buffer

	// hist logs this node's occurrences for window queries.
	hist *history

	// open is the current open sequence of an eager SEQ+/TSEQ+ node;
	// spare recycles the previous run's struct and element arrays once it
	// closes (closeOpen), so steady-state runs allocate nothing.
	open  *openSeq
	spare *openSeq

	// guard is the node's WHERE predicate runtime (guardplan.go); nil
	// for unguarded nodes.
	guard *guardState

	// closureDelay bounds how long after an instance's End this node may
	// emit it (e.g. a TSEQ+ closure fires Hi after its last element).
	closureDelay time.Duration

	// Future arrivals end no earlier than the clock less lag; a buffered
	// instance expires within reclaimEvery of its arrival (0: nothing
	// buffered can expire).
	lag, reclaimEvery time.Duration

	// sweep is the period of the node's reclaim event: reclaimEvery, or
	// Retention for a node whose only expiring state is its history (0:
	// the node never arms). armed marks an event pending at sweepAt.
	sweep   time.Duration
	sweepAt event.Time
	armed   bool
}

// openSeq is an in-progress aperiodic sequence. starts tracks each
// element's begin time so overflow truncation can recompute the span.
type openSeq struct {
	elems   []event.Bindings
	starts  []event.Time
	begin   event.Time
	last    event.Time
	version uint64
	// accs are running aggregate accumulators for the node's guard,
	// indexed like guardState.aggVars; nil until the first element of a
	// guarded run.
	accs []event.AggAcc
}

// pseudoEvent queries the occurrences (or non-occurrences) of a target
// event over a window at a scheduled execution time (paper §4.5).
type pseudoEvent struct {
	exec     event.Time
	seq      uint64
	node     *graph.Node // protocol owner
	strategy graph.PseudoStrategy
	payload  *event.Instance // the constituent that scheduled the query
	w0, w1   event.Time      // query window
	version  uint64          // open-sequence version for SeqPlusClose
}

type pseudoHeap []*pseudoEvent

func (h pseudoHeap) Len() int { return len(h) }
func (h pseudoHeap) Less(i, j int) bool {
	if h[i].exec != h[j].exec {
		return h[i].exec < h[j].exec
	}
	return h[i].seq < h[j].seq
}
func (h pseudoHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pseudoHeap) Push(x any)   { *h = append(*h, x.(*pseudoEvent)) }
func (h *pseudoHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// reclaimHeap orders armed nodes by reclaim instant; a sweep touches only
// its own node, so ties may fire in any order. A reclaim event takes no
// pseq and is never checkpointed: a restore re-arms every node it fills.
type reclaimHeap []*nodeState

func (h reclaimHeap) Len() int           { return len(h) }
func (h reclaimHeap) Less(i, j int) bool { return h[i].sweepAt < h[j].sweepAt }
func (h reclaimHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *reclaimHeap) Push(x any)        { *h = append(*h, x.(*nodeState)) }
func (h *reclaimHeap) Pop() any {
	old := *h
	*h = old[:len(old)-1]
	return old[len(old)-1]
}

// New builds an engine for a finalized event graph.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, errors.New("detect: Config.Graph is required")
	}
	e := &Engine{
		g:        cfg.Graph,
		groups:   cfg.Groups,
		typeOf:   cfg.TypeOf,
		onDetect: cfg.OnDetect,
		now:      event.MinTime,
		maxOpen:  cfg.MaxOpenSequence,
		intern:   cfg.Interner,
	}
	if e.groups == nil {
		e.groups = func(r string) []string { return []string{r} }
	}
	if e.typeOf == nil {
		e.typeOf = func(string) string { return "" }
	}
	if e.onDetect == nil {
		e.onDetect = func(int, *event.Instance) {}
	}
	if e.intern == nil {
		e.intern = event.NewInterner()
	}
	maxID := 0
	for _, n := range cfg.Graph.Nodes {
		if n.ID > maxID {
			maxID = n.ID
		}
	}
	e.states = make([]*nodeState, maxID+1)
	limit := func(b *buffer) *buffer {
		b.cap = cfg.MaxPartitionBuffer
		b.dropped = &e.m.Dropped
		return b
	}
	for _, n := range cfg.Graph.Nodes {
		st := &nodeState{n: n}
		if n.Guard != nil {
			st.guard = newGuardState(n)
		}
		if n.Kind == graph.KindAnd || n.Kind == graph.KindSeq {
			st.left = limit(newBuffer(n.JoinVars))
		}
		if n.NeedsHistory {
			st.hist = newHistory()
			st.hist.cap = cfg.MaxHistory
			st.hist.dropped = &e.m.Dropped
		}
		e.states[n.ID] = st
	}
	// Closure delays, terminator wait-buffers and history keys need the
	// full graph.
	for _, n := range cfg.Graph.Nodes {
		e.states[n.ID].closureDelay = closureDelay(n)
	}
	for _, n := range cfg.Graph.Nodes {
		if st := e.states[n.ID]; st.left != nil && n.NotChild < 0 && (n.HasWithin || n.Kind == graph.KindSeq && n.HasDist) {
			// expired can hold here; anything buffered has expired against
			// every future arrival one such span after it arrived.
			st.lag = emitLag(n)
			st.reclaimEvery = st.lag + max(n.Within+st.closureDelay, n.Hi, time.Nanosecond)
		}
		if st := e.states[n.ID]; st.reclaimEvery > 0 {
			st.sweep = st.reclaimEvery
		} else if st.hist != nil {
			st.sweep = n.Retention
		}
		if n.NotChild >= 0 && len(n.JoinVars) > 0 {
			// The first negation consumer keys the negated child's
			// history; a consumer joining on other variables scans.
			if h := e.states[n.Children[n.NotChild].Child().ID].hist; h.keyed == nil {
				h.keyed = newKeyIndex[endList](n.JoinVars)
			}
		}
		if n.Kind == graph.KindSeq && n.NotChild != 1 {
			if closureDelay(n.Left()) > 0 {
				// The initiator can close after the terminator arrives;
				// terminators must wait.
				e.states[n.ID].right = limit(newBuffer(n.JoinVars))
			}
		}
		if n.Kind == graph.KindAnd && n.NotChild < 0 {
			e.states[n.ID].right = limit(newBuffer(n.JoinVars))
		}
	}
	e.buildPlans()
	return e, nil
}

// Interner returns the engine's intern table.
func (e *Engine) Interner() *event.Interner { return e.intern }

// closureDelay bounds emission lag: how long after an instance's End the
// node can still emit it.
func closureDelay(n *graph.Node) time.Duration {
	switch n.Kind {
	case graph.KindPrim, graph.KindNot:
		return 0
	case graph.KindSeqPlus:
		if n.HasDist {
			return n.Hi
		}
		return 0
	case graph.KindSeq:
		return closureDelay(n.Right())
	}
	var d time.Duration // Or, And
	for _, c := range n.Children {
		d = max(d, closureDelay(c))
	}
	return d
}

// emitLag bounds how far behind the clock an instance n delivers can end:
// closureDelay, except that a sequence takes both sides (a late-closing
// initiator pairs with a waiting terminator) — reclaim needs a true bound.
func emitLag(n *graph.Node) time.Duration {
	if n.Kind == graph.KindSeqPlus || len(n.Children) == 0 {
		return closureDelay(n)
	}
	var d time.Duration
	for _, c := range n.Children {
		d = max(d, emitLag(c))
	}
	return d
}

// Now returns the engine's current virtual time.
func (e *Engine) Now() event.Time { return e.now }

// Metrics returns a snapshot of activity counters.
func (e *Engine) Metrics() Metrics { return e.m }

// Ingest feeds one observation — IngestBatch of one. Observations must
// arrive in non-decreasing timestamp order.
func (e *Engine) Ingest(obs event.Observation) error {
	if e.now != event.MinTime && obs.At < e.now {
		return fmt.Errorf("%w: got %s, engine at %s", ErrOutOfOrder, obs.At, e.now)
	}
	e.step(&obs)
	return nil
}

// step applies one observation known to be in order: pending pseudo
// events scheduled strictly before its time fire first (the engine always
// consumes the earliest event of the observation and pseudo queues, paper
// §4.5), the clock advances, and the observation is dispatched through
// its reader's dispatch list.
func (e *Engine) step(o *event.Observation) {
	if e.dueBefore(o.At) {
		e.drainPseudo(o.At, true)
	}
	e.now = o.At
	e.m.Observations++
	e.dispatchObs(o)
}

// IngestBatch feeds a whole batch in timestamp order. The call is atomic
// with respect to ordering failures: if the earliest observation in the
// batch precedes the engine's current time, IngestBatch returns
// ErrOutOfOrder and NO observation is applied; every later observation in
// the sorted batch is ≥ the first, so a mid-batch failure is impossible.
//
// An already-sorted batch (the normal case — read cycles arrive in order)
// is consumed in place with no copy; an unsorted one is stably sorted into
// an engine-owned scratch buffer, never mutating the caller's slice. step
// is inlined into the loop, so the batch costs one function call plus the
// per-observation matching work.
func (e *Engine) IngestBatch(batch []event.Observation) error {
	if len(batch) == 0 {
		return nil
	}
	sorted := batch
	if !event.Batch(batch).Sorted() {
		e.batchScratch = append(e.batchScratch[:0], batch...)
		sorted = e.batchScratch
		event.Batch(sorted).Sort()
	}
	if e.now != event.MinTime && sorted[0].At < e.now {
		return fmt.Errorf("%w: batch starts at %s, engine at %s", ErrOutOfOrder, sorted[0].At, e.now)
	}
	// step, inlined: this loop is the engine's hot path.
	e.m.Observations += uint64(len(sorted))
	for i := range sorted {
		o := &sorted[i]
		if e.dueBefore(o.At) {
			e.drainPseudo(o.At, true)
		}
		e.now = o.At
		e.dispatchObs(o)
	}
	return nil
}

// AdvanceTo moves virtual time forward to t with no intervening
// observations, firing every pseudo event scheduled at or before t. Call
// it when the source is idle so negation windows can expire and reclaim
// events release the state no future arrival can use.
func (e *Engine) AdvanceTo(t event.Time) error {
	if t < e.now {
		return fmt.Errorf("%w: AdvanceTo(%s), engine at %s", ErrOutOfOrder, t, e.now)
	}
	e.drainPseudo(t, false)
	e.now = t
	return nil
}

// AdvanceBefore moves virtual time forward to t, firing only the pseudo
// events scheduled strictly before t — exactly the catch-up Ingest performs
// ahead of an observation at t. Pseudo events scheduled at t itself stay
// pending, because an observation at exactly t may still arrive and affect
// them (extend an aperiodic sequence, fall inside a negation window).
// Sharded routing uses it to bring idle shards up to the router's clock
// without changing what a single engine would have fired.
func (e *Engine) AdvanceBefore(t event.Time) error {
	if t < e.now {
		return fmt.Errorf("%w: AdvanceBefore(%s), engine at %s", ErrOutOfOrder, t, e.now)
	}
	e.drainPseudo(t, true)
	e.now = t
	return nil
}

// Close drains every pending pseudo event, completing all detections whose
// windows end after the last observation. The engine remains usable; time
// advances to the last fired pseudo event. Reclaim events due by then fire
// with them; later ones stay armed for AdvanceTo.
func (e *Engine) Close() {
	for len(e.pq) > 0 {
		last := e.pq[0].exec
		for _, ps := range e.pq {
			last = max(last, ps.exec)
		}
		e.drainPseudo(last, false)
	}
}

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// schedule enqueues a pseudo event.
func (e *Engine) schedule(ps *pseudoEvent) {
	e.pseq++
	ps.seq = e.pseq
	heap.Push(&e.pq, ps)
	e.m.PseudoScheduled++
}

// dueBefore reports whether a pseudo or reclaim event is scheduled
// strictly before t.
func (e *Engine) dueBefore(t event.Time) bool {
	return len(e.pq) > 0 && e.pq[0].exec < t || len(e.rq) > 0 && e.rq[0].sweepAt < t
}

// drainPseudo fires pseudo and reclaim events up to limit in time order;
// strict excludes events at exactly limit (they may still be affected by
// observations at that time). At one instant, pseudo events fire before
// reclaim events.
func (e *Engine) drainPseudo(limit event.Time, strict bool) {
	due := func(at event.Time) bool { return at < limit || !strict && at == limit }
	for {
		query := len(e.pq) > 0 && due(e.pq[0].exec)
		sweep := len(e.rq) > 0 && due(e.rq[0].sweepAt)
		switch {
		case query && (!sweep || e.pq[0].exec <= e.rq[0].sweepAt):
			top := heap.Pop(&e.pq).(*pseudoEvent)
			e.now = max(e.now, top.exec)
			e.m.PseudoFired++
			e.fire(top)
			// fire keeps no reference to the struct (the payload instance
			// is independently owned), so it recycles.
			*top = pseudoEvent{}
			e.psPool = append(e.psPool, top)
		case sweep:
			st := heap.Pop(&e.rq).(*nodeState)
			e.now = max(e.now, st.sweepAt)
			e.sweepNode(st)
		default:
			return
		}
	}
}
