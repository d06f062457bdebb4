package shard

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// ErrClosed is returned by ingestion calls after Close.
var ErrClosed = errors.New("shard: engine is closed")

// Config configures a sharded engine. The detection-semantics fields
// (Groups, TypeOf, Limits) mean exactly what they do in detect.Config and
// are applied to every shard.
type Config struct {
	// Rules is the rule set to partition. IDs are the graph rule IDs
	// reported to OnDetect and must be unique.
	Rules []Rule

	// Shards is the maximum number of detect.Engine workers; the
	// partition may use fewer when the rule set has fewer independent
	// key-space classes. Values < 1 mean 1.
	Shards int

	Groups   func(reader string) []string
	TypeOf   func(object string) string
	OnDetect func(ruleID int, inst *event.Instance)

	detect.Limits

	// Interner is shared across all shard engines so EPC/reader symbols
	// agree engine-wide (it is safe for concurrent use). Nil means the
	// engine creates one.
	Interner *event.Interner

	// Batch is the number of envelopes per channel send (default 64).
	// Larger batches amortize channel overhead, smaller ones reduce shard
	// idle time on skewed fan-out.
	Batch int

	// SyncEvery bounds how many ingested observations may pass between
	// delivery barriers (default 4096). At a barrier the router waits
	// for every shard to drain, merges the shards' detections into the
	// deterministic global order and invokes OnDetect for each. Smaller
	// values reduce detection latency; larger ones reduce the
	// synchronization bubble.
	SyncEvery int
}

// workerBuffer is each shard's channel capacity in envelope batches: the
// router may run a few batches ahead of a worker still ingesting an
// earlier one. Every barrier drains the queue, so a deeper one would only
// hold more pooled batches.
const workerBuffer = 8

// opKind discriminates worker envelopes.
type opKind uint8

const (
	opObsBatch opKind = iota // deliver a routed observation sub-batch (pooled)
	opAdvance                // AdvanceTo with no observation
	opCatchUp                // AdvanceBefore: barrier pre-advance to the router's clock
	opDrain                  // detect.Engine.Close: fire all pending pseudo events
	opBarrier                // ack and quiesce until the next batch
)

// envelope is one unit of work shipped to a shard worker.
type envelope struct {
	op    opKind
	batch event.Batch // opObsBatch payload; worker recycles it after ingest
	at    event.Time
	ack   *sync.WaitGroup
}

// Detection is one detection held for merged delivery. Fire is the
// virtual time it fired at — the observation timestamp for an
// observation-triggered detection, the scheduled execution time for a
// pseudo-event one — which is exactly the virtual time a single engine
// would fire it at. Seq orders one source's detections of one rule at
// one instant: a worker's arrival counter here, a shard's detection
// sequence in the cluster coordinator.
type Detection struct {
	Fire event.Time
	Rule int
	Seq  uint64
	Inst *event.Instance
}

// Deliver sorts pending by (Fire, Rule, Seq) and calls onDetect for every
// detection that fires strictly before cut, or for all of them when all
// is set. It returns the held rest in pending's backing array. A group at
// the cut stays held because it may still grow: a pseudo event due there
// has not fired, and an observation at exactly the cut may still arrive.
// Delivering it would split the group across calls and make tie order
// depend on where the cut fell.
func Deliver(pending []Detection, cut event.Time, all bool, onDetect func(int, *event.Instance)) []Detection {
	slices.SortFunc(pending, func(a, b Detection) int {
		return cmp.Or(cmp.Compare(a.Fire, b.Fire), cmp.Compare(a.Rule, b.Rule), cmp.Compare(a.Seq, b.Seq))
	})
	n := len(pending)
	if !all {
		n = sort.Search(n, func(i int) bool { return pending[i].Fire >= cut })
	}
	for _, d := range pending[:n] {
		onDetect(d.Rule, d.Inst)
	}
	return append(pending[:0], pending[n:]...)
}

// worker runs one detect.Engine on its own goroutine.
type worker struct {
	id   int
	eng  *detect.Engine
	ch   chan []envelope
	done chan struct{}

	// The fields below are owned by the worker goroutine between
	// barriers; the router reads/resets them only after a barrier ack
	// (the WaitGroup provides the happens-before edge).
	seq  uint64
	dets []Detection
	err  error
}

func (w *worker) loop() {
	defer close(w.done)
	for batch := range w.ch {
		for _, env := range batch {
			switch env.op {
			case opObsBatch:
				// The router routed and ordered the sub-batch; the engine's
				// batch fast path consumes it in place, then the backing
				// array recycles for the router's next fan-out.
				if w.err == nil {
					if err := w.eng.IngestBatch(env.batch); err != nil {
						w.err = fmt.Errorf("shard %d: %w", w.id, err)
					}
				}
				event.PutBatch(env.batch)
			case opAdvance:
				// Close (opDrain) can move the shard clock past the
				// router's; skipping a stale advance keeps it a no-op.
				if w.err == nil && env.at > w.eng.Now() {
					if err := w.eng.AdvanceTo(env.at); err != nil {
						w.err = fmt.Errorf("shard %d: %w", w.id, err)
					}
				}
			case opCatchUp:
				// Barrier pre-advance: fire only pseudo events strictly
				// before the router's clock. An observation at exactly
				// env.at may still arrive after the barrier, so pseudo
				// events due at env.at itself must stay pending — firing
				// them here would diverge from a single engine.
				if w.err == nil && env.at > w.eng.Now() {
					if err := w.eng.AdvanceBefore(env.at); err != nil {
						w.err = fmt.Errorf("shard %d: %w", w.id, err)
					}
				}
			case opDrain:
				w.eng.Close()
			case opBarrier:
				env.ack.Done()
			}
		}
	}
}

// Engine shards a rule set across parallel detect.Engines behind the same
// ingestion interface. Unlike detect.Engine it IS safe for concurrent
// use: every public method may be called from any goroutine (calls
// serialize on an internal mutex; shard workers run in parallel
// underneath).
//
// Detections are delivered in batches at synchronization barriers
// (every SyncEvery observations, and on Sync, Close, Metrics snapshots
// and checkpoints), merged across shards into a deterministic order:
// ascending by (firing virtual time, rule ID, shard-local arrival).
// Every barrier first catches all shards up to the router's clock (firing
// pseudo events due strictly before it — events due at the clock itself
// may still be affected by an observation at that exact timestamp, so
// they stay pending, exactly as in a single engine). A fire-time group is
// delivered only once the clock has strictly passed it, so the group is
// known complete and is sorted exactly once: the merged order depends on
// neither the shard count nor where barriers fall in the stream. It is
// the single engine's delivery order up to ties at identical virtual time
// between distinct rules, which are normalized to rule-ID order; the
// multiset of detections is always identical to a single engine's.
// Detections at the current instant are held until time advances; Sync
// and Close flush them unconditionally. OnDetect runs on the goroutine
// that triggered the barrier, with the engine lock held — it must not
// call back into the engine.
type Engine struct {
	part     *Partition
	onDetect func(int, *event.Instance)

	mu        sync.Mutex
	router    *Router
	workers   []*worker
	pend      [][]envelope
	batch     int
	syncEvery int
	sinceSync int

	// obsPend accumulates each shard's routed observations into a pooled
	// sub-batch, sealed into one opObsBatch envelope when full or when any
	// other op must be ordered behind it — one channel payload per batch
	// instead of one envelope per observation. sortScratch is the reused
	// IngestBatch sort buffer.
	obsPend     []event.Batch
	sortScratch []event.Observation

	intern *event.Interner

	closed    bool
	now       event.Time
	idx       uint64
	ingested  uint64
	delivered uint64
	err       error

	// pending holds detections collected at barriers but not yet
	// delivered: the fire-time group at the current instant, which may
	// still grow until the clock strictly passes it.
	pending []Detection
}

// New partitions the rules, builds one detect.Engine per shard and starts
// the shard workers. The returned engine must be Closed to stop them.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Rules) == 0 {
		return nil, errors.New("shard: Config.Rules is empty")
	}
	seen := map[int]bool{}
	for _, r := range cfg.Rules {
		if seen[r.ID] {
			return nil, fmt.Errorf("shard: duplicate rule ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	part := NewPartition(cfg.Rules, cfg.Shards, cfg.Groups)
	e := &Engine{
		part:      part,
		onDetect:  cfg.OnDetect,
		router:    NewRouter(part, cfg.Groups),
		batch:     cfg.Batch,
		syncEvery: cfg.SyncEvery,
		now:       event.MinTime,
	}
	if e.onDetect == nil {
		e.onDetect = func(int, *event.Instance) {}
	}
	if e.batch <= 0 {
		e.batch = 64
	}
	if e.syncEvery <= 0 {
		e.syncEvery = 4096
	}
	intern := cfg.Interner
	if intern == nil {
		intern = event.NewInterner()
	}
	e.intern = intern
	e.workers = make([]*worker, part.NumShards())
	e.pend = make([][]envelope, part.NumShards())
	e.obsPend = make([]event.Batch, part.NumShards())
	for s := 0; s < part.NumShards(); s++ {
		b := graph.NewBuilder()
		for _, r := range part.ByShard[s] {
			if _, err := b.AddRule(r.ID, r.Expr); err != nil {
				return nil, fmt.Errorf("shard: %w", err)
			}
		}
		w := &worker{id: s, ch: make(chan []envelope, workerBuffer), done: make(chan struct{})}
		eng, err := detect.New(detect.Config{
			Graph:  b.Finalize(),
			Groups: cfg.Groups,
			TypeOf: cfg.TypeOf,
			OnDetect: func(rid int, inst *event.Instance) {
				w.seq++
				w.dets = append(w.dets, Detection{
					Fire: w.eng.Now(), Rule: rid, Seq: w.seq, Inst: inst,
				})
			},
			Limits:   cfg.Limits,
			Interner: intern,
		})
		if err != nil {
			return nil, fmt.Errorf("shard: %w", err)
		}
		w.eng = eng
		e.workers[s] = w
		e.pend[s] = make([]envelope, 0, e.batch)
	}
	for _, w := range e.workers {
		go w.loop()
	}
	return e, nil
}

// Shards returns the number of parallel detection engines.
func (e *Engine) Shards() int { return len(e.workers) }

// Interner returns the intern table shared by every shard worker. Ingest
// adapters use it to canonicalize reader and EPC strings at the edge (see
// event.Interner.Canon).
func (e *Engine) Interner() *event.Interner { return e.intern }

// Err returns the first shard failure, if any. The router pre-validates
// timestamp ordering, so shard failures indicate a bug rather than bad
// input.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// pushObs appends an observation to shard s's pending sub-batch, sealing
// it into one envelope once it reaches the batch size.
func (e *Engine) pushObs(s int, o event.Observation) {
	b := e.obsPend[s]
	if b == nil {
		b = event.GetBatch()
	}
	b = append(b, o)
	if len(b) >= e.batch {
		e.obsPend[s] = nil
		e.push(s, envelope{op: opObsBatch, batch: b})
		return
	}
	e.obsPend[s] = b
}

// push queues an envelope for shard s, flushing a full batch. Any
// non-observation op first seals the shard's pending observation
// sub-batch so per-shard envelope order equals arrival order.
func (e *Engine) push(s int, env envelope) {
	if env.op != opObsBatch {
		if b := e.obsPend[s]; len(b) > 0 {
			e.obsPend[s] = nil
			e.pend[s] = append(e.pend[s], envelope{op: opObsBatch, batch: b})
		}
	}
	e.pend[s] = append(e.pend[s], env)
	if len(e.pend[s]) >= e.batch {
		e.flush(s)
	}
}

// flush ships shard s's pending envelopes. The pending slice is handed
// off, not reused: the worker owns it after the send.
func (e *Engine) flush(s int) {
	if len(e.pend[s]) == 0 {
		return
	}
	batch := e.pend[s]
	e.pend[s] = make([]envelope, 0, e.batch)
	e.workers[s].ch <- batch
}

// Ingest feeds one observation — IngestBatch of one. Observations must
// arrive in non-decreasing timestamp order, exactly as for detect.Engine.
func (e *Engine) Ingest(o event.Observation) error {
	return e.IngestBatch([]event.Observation{o})
}

// IngestBatch feeds a whole batch in timestamp order, taking the router
// lock once. An already-sorted batch (the normal case — read cycles
// arrive ordered) is routed in place with no copy; an unsorted one is
// stably sorted into an engine-owned scratch buffer. Like
// detect.Engine.IngestBatch the call is atomic with respect to ordering
// failures: when the earliest observation precedes the engine's current
// time, nothing is applied.
func (e *Engine) IngestBatch(batch []event.Observation) error {
	if len(batch) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.err != nil {
		return e.err
	}
	sorted := batch
	if !event.Batch(batch).Sorted() {
		// Sorting its own variable keeps the caller's slice (Ingest's
		// batch of one) off the heap.
		scratch := append(e.sortScratch[:0], batch...)
		event.Batch(scratch).Sort()
		e.sortScratch, sorted = scratch, scratch
	}
	if e.now != event.MinTime && sorted[0].At < e.now {
		return fmt.Errorf("%w: batch starts at %s, engine at %s", detect.ErrOutOfOrder, sorted[0].At, e.now)
	}
	for _, o := range sorted {
		if err := e.routeLocked(o); err != nil {
			return err
		}
	}
	return nil
}

// routeLocked advances the router clock to an in-order observation and
// fans it out to the shards whose leaf key spaces can match it. A shard
// failure surfaced by the periodic barrier ends the batch.
func (e *Engine) routeLocked(o event.Observation) error {
	e.now = o.At
	e.idx++
	e.ingested++
	for _, s := range e.router.ShardsFor(o.Reader) {
		e.pushObs(s, o)
	}
	e.sinceSync++
	if e.sinceSync >= e.syncEvery {
		return e.barrierLocked(true)
	}
	return nil
}

// AdvanceTo moves virtual time forward on every shard with no intervening
// observations, so negation windows and sequence closures can expire.
func (e *Engine) AdvanceTo(t event.Time) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.err != nil {
		return e.err
	}
	if t < e.now {
		return fmt.Errorf("%w: AdvanceTo(%s), engine at %s", detect.ErrOutOfOrder, t, e.now)
	}
	e.now = t
	e.idx++
	env := envelope{op: opAdvance, at: t}
	for s := range e.workers {
		e.push(s, env)
	}
	e.sinceSync++
	if e.sinceSync >= e.syncEvery {
		return e.barrierLocked(true)
	}
	return nil
}

// Sync forces a delivery barrier: all shards drain their queues and every
// pending detection is delivered through OnDetect in merged order. Call it
// before reading state the detections feed (an audit log, a data store).
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return e.err
	}
	err := e.barrierLocked(false)
	e.deliverPending(true)
	return err
}

// Close completes every pending detection (each shard fires its remaining
// pseudo events), delivers the final merged batch and stops the shard
// workers. The engine rejects ingestion afterwards; Close is idempotent
// and returns the first shard failure, if any.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.idx++
	env := envelope{op: opDrain}
	for s := range e.workers {
		e.push(s, env)
	}
	e.barrierLocked(false)
	e.deliverPending(true)
	for s := range e.workers {
		close(e.workers[s].ch)
	}
	for _, w := range e.workers {
		<-w.done
	}
	e.closed = true
}

// barrierLocked flushes all pending envelopes, waits until every shard has
// drained its queue, surfaces worker errors, collects the accumulated
// detections into e.pending and — when deliver is set — delivers every
// completed fire-time group. Callers hold e.mu, so after the barrier the
// workers are quiescent (blocked on empty channels) and their state is
// safe to read.
func (e *Engine) barrierLocked(deliver bool) error {
	// Catch every shard up to the router's clock first: a shard that saw
	// none of the recent observations still owes pseudo-event firings due
	// strictly before now, and with those in hand every fire-time group
	// before e.now is complete — the merged (fire, rule, seq) order cannot
	// change with the shard count. The catch-up is strict (AdvanceBefore,
	// not AdvanceTo): an observation at exactly e.now may still arrive
	// after this barrier, so pseudo events due at e.now itself must not
	// fire early.
	if e.now != event.MinTime {
		adv := envelope{op: opCatchUp, at: e.now}
		for s := range e.workers {
			e.push(s, adv)
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(e.workers))
	env := envelope{op: opBarrier, ack: &wg}
	for s := range e.workers {
		e.push(s, env)
		e.flush(s)
	}
	wg.Wait()
	e.sinceSync = 0
	for _, w := range e.workers {
		if w.err != nil && e.err == nil {
			e.err = w.err
		}
		e.pending = append(e.pending, w.dets...)
		w.dets = w.dets[:0]
	}
	if deliver {
		e.deliverPending(false)
	}
	return e.err
}

// deliverPending delivers every completed fire-time group — those
// strictly before the router's clock — through Deliver. Sync and Close
// pass all=true to flush the group at the current instant too.
func (e *Engine) deliverPending(all bool) {
	held := len(e.pending)
	e.pending = Deliver(e.pending, e.now, all, e.onDetect)
	e.delivered += uint64(held - len(e.pending))
}

// Metrics returns the aggregate activity counters: Observations is the
// number of observations accepted by the router (each counted once, no
// matter how many shards it fanned out to), Detections the number of
// detections delivered through OnDetect, and the remaining fields are
// summed across shards. The call quiesces every shard first, so the
// counters are a consistent snapshot; completed fire-time groups are
// delivered as a side effect (detections at the current instant stay
// pending until time advances, so Detections can trail Emitted).
func (e *Engine) Metrics() detect.Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.barrierLocked(true)
	}
	var m detect.Metrics
	for _, w := range e.workers {
		sm := w.eng.Metrics()
		m.PlanProbes += sm.PlanProbes
		m.PrimMatches += sm.PrimMatches
		m.Emitted += sm.Emitted
		m.PseudoScheduled += sm.PseudoScheduled
		m.PseudoFired += sm.PseudoFired
		m.Dropped += sm.Dropped
	}
	m.Observations = e.ingested
	m.Detections = e.delivered
	return m
}

// ShardMetrics returns every shard's own counters (index = shard ID);
// Observations here counts the observations routed to that shard.
func (e *Engine) ShardMetrics() []detect.Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.barrierLocked(true)
	}
	out := make([]detect.Metrics, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.eng.Metrics()
	}
	return out
}
