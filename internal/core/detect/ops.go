package detect

import (
	"container/heap"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// emit records an occurrence of node n and propagates it: into the node's
// history when queried, to the rules rooted at n, and to every parent
// (paper's ACTIVATE_PARENT_NODE).
func (e *Engine) emit(n *graph.Node, inst *event.Instance) {
	if n.HasWithin && inst.Interval() > n.Within {
		return // violates the propagated interval constraint
	}
	e.m.Emitted++
	st := e.states[n.ID]
	if st.hist != nil {
		e.record(st, inst)
	}
	for _, rid := range n.Rules {
		e.m.Detections++
		e.onDetect(rid, inst)
	}
	for _, p := range n.Parents {
		e.deliver(p, n, inst)
	}
}

// record logs an occurrence in st's history. Entries past Retention go
// first, so the MaxHistory cap evicts only entries a query can still read;
// the node's reclaim event prunes the rest once its readers go quiet.
func (e *Engine) record(st *nodeState, inst *event.Instance) {
	if r := st.n.Retention; r > 0 {
		st.hist.pruneBefore(e.now.Add(-r - time.Nanosecond))
		e.arm(st, e.now)
	}
	st.hist.add(inst)
}

// deliver routes a child occurrence into a parent constructor.
func (e *Engine) deliver(p *graph.Node, from *graph.Node, inst *event.Instance) {
	switch p.Kind {
	case graph.KindOr:
		if !e.guardPassBinds(p, inst.Binds) {
			return
		}
		e.emit(p, e.newInstance(inst.Begin, inst.End, inst.Binds, e.nextSeq()))
	case graph.KindNot:
		// Occurrences of the negated child are visible through its
		// history; the NOT node itself never emits spontaneously.
	case graph.KindAnd:
		e.andDeliver(p, from, inst)
	case graph.KindSeq:
		e.seqDeliver(p, from, inst)
	case graph.KindSeqPlus:
		e.seqPlusDeliver(p, inst)
	}
}

// andDeliver implements conjunction. With a negated conjunct it runs the
// paper's Fig. 8 protocol; otherwise it pairs the two positive sides in
// chronicle order.
func (e *Engine) andDeliver(p *graph.Node, from *graph.Node, inst *event.Instance) {
	if p.NotChild >= 0 {
		// WITHIN(P ∧ ¬N, w). Arrival of positive p: first check
		// retrospectively for N in [t_end(p)−w, t_end(p)]; if clean,
		// schedule a pseudo event at t_begin(p)+w querying
		// [t_end(p), t_begin(p)+w].
		//
		// A scoped negation (P ∧ ¬N WITHIN v) replaces w with v and
		// anchors both windows at t_end(p): absence is asserted over
		// [t_end(p)−v, t_end(p)+v], within v of the positive's end,
		// independent of the enclosing WITHIN.
		if !e.guardPassBinds(p, inst.Binds) {
			return
		}
		notN := p.Children[p.NotChild]
		w := p.Within
		exec := inst.Begin.Add(w)
		if notN.HasNotWin {
			w = notN.NotWin
			exec = inst.End.Add(w)
		}
		neg := notN.Child()
		filter := e.projectFilter(inst.Binds, p.JoinVars)
		hit := e.occurs(neg, inst.End.Add(-w), inst.End, filter)
		e.releaseFilter(filter)
		if hit {
			return
		}
		ps := e.newPseudo()
		*ps = pseudoEvent{
			exec: exec, node: p, strategy: graph.PseudoAndNotExpire,
			payload: inst, w0: inst.End, w1: exec,
		}
		e.schedule(ps)
		return
	}
	st := e.states[p.ID]
	var mine, other *buffer
	switch {
	case p.Left() == p.Right():
		// Self-conjunction AND(E, E): pair with an older sibling or wait.
		mine, other = st.left, st.left
	case from == p.Left():
		mine, other = st.left, st.right
	default:
		mine, other = st.right, st.left
	}
	e.pair(p, st, inst, mine, other, false)
}

// seqDeliver implements sequence. The initiator is Children[0], the
// terminator Children[1].
func (e *Engine) seqDeliver(p *graph.Node, from *graph.Node, inst *event.Instance) {
	st := e.states[p.ID]
	fromRight := from == p.Right()
	// Negated terminator (outfield pattern): on initiator arrival,
	// schedule the non-occurrence check at t_end(e1)+bound.
	if p.NotChild == 1 {
		if fromRight {
			return
		}
		if !e.guardPassBinds(p, inst.Binds) {
			return
		}
		// A scoped negated terminator (SEQ(P ; ¬N WITHIN v)) confirms
		// absence over (t_end(p), t_end(p)+v] regardless of the outer
		// bound; otherwise the window runs to the enclosing bound.
		r := p.Right()
		var b time.Duration
		if r.HasNotWin {
			b = r.NotWin
		} else {
			b, _ = p.Bound()
		}
		ps := e.newPseudo()
		*ps = pseudoEvent{
			exec: inst.End.Add(b), node: p, strategy: graph.PseudoSeqNotTerm,
			payload: inst, w0: inst.End + 1, w1: inst.End.Add(b),
		}
		e.schedule(ps)
		return
	}
	// Negated initiator (infield pattern): on terminator arrival, check
	// retrospectively that the negated event did not occur in
	// [t_end(e2)−bound, t_begin(e2)). A scoped negated initiator
	// (SEQ(¬N WITHIN v ; P)) anchors the window at the terminator's
	// begin instead: [t_begin(e2)−v, t_begin(e2)).
	if p.NotChild == 0 {
		if !fromRight {
			return
		}
		if !e.guardPassBinds(p, inst.Binds) {
			return
		}
		l := p.Left()
		var a event.Time
		if l.HasNotWin {
			a = inst.Begin.Add(-l.NotWin)
		} else {
			b, _ := p.Bound()
			a = inst.End.Add(-b)
		}
		neg := l.Child()
		filter := e.projectFilter(inst.Binds, p.JoinVars)
		hit := e.occurs(neg, a, inst.Begin-1, filter)
		e.releaseFilter(filter)
		if hit {
			return
		}
		e.emit(p, e.newInstance(a, inst.End, inst.Binds, e.nextSeq()))
		return
	}
	if p.Left() == p.Right() {
		// Self-sequence SEQ(E, E): the arrival terminates an older
		// occurrence, or waits as a future initiator.
		e.pair(p, st, inst, st.left, st.left, true)
		return
	}
	if fromRight {
		// Pulled SEQ+/TSEQ+ initiators are queried rather than buffered.
		if l := p.Left(); l.Kind == graph.KindSeqPlus && !l.Pseudo {
			e.seqPullInitiator(p, inst)
			return
		}
		e.pair(p, st, inst, st.right, st.left, true)
		return
	}
	e.pair(p, st, inst, st.left, st.right, false)
}

// pair matches an arriving instance against the opposite buffer of a
// binary node under the chronicle context (paper §4.2): the oldest
// admissible candidate is consumed and paired with the arrival; with none,
// the arrival waits in mine. mine is the buffer for the arriving side (nil
// when arrivals are never buffered), other the opposite side (nil when
// there is nothing to match against). arrivedRight distinguishes sequence
// terminators.
func (e *Engine) pair(p *graph.Node, st *nodeState, inst *event.Instance, mine, other *buffer, arrivedRight bool) {
	var match *event.Instance
	if other != nil {
		cond := e.pairCond(p, inst, arrivedRight)
		other.scan(inst.Binds, func(c *event.Instance) (bool, bool) {
			if e.expired(p, c, inst.End, arrivedRight) {
				return false, true
			}
			if cond(c) {
				match = c
				return false, false // consume, stop
			}
			return true, true
		})
	}
	switch {
	case match != nil:
		e.emit(p, e.combine(p, match, inst))
	case mine != nil:
		mine.add(inst)
		if st.reclaimEvery > 0 {
			e.arm(st, e.now)
		}
	}
}

// pairCond builds the admissibility predicate for a candidate from the
// opposite buffer: binding compatibility, sequence order, distance bounds,
// the interval constraint and the node's guard. Guards sit inside the
// predicate so a failed guard never consumes the candidate (chronicle
// keeps scanning for an admissible partner).
func (e *Engine) pairCond(p *graph.Node, inst *event.Instance, arrivedRight bool) func(*event.Instance) bool {
	gs := e.states[p.ID].guard
	return func(c *event.Instance) bool {
		var l, r *event.Instance
		if p.Kind == graph.KindSeq {
			if arrivedRight {
				l, r = c, inst
			} else {
				l, r = inst, c
			}
			if l.End >= r.Begin {
				return false
			}
			if p.HasDist {
				d := event.Dist(l, r)
				if d < p.Lo || d > p.Hi {
					return false
				}
			}
		}
		if p.HasWithin && event.Interval2(c, inst) > p.Within {
			return false
		}
		// The arriving instance's bindings shadow the candidate's,
		// matching the Merge order in combine.
		if gs != nil && !e.guardPass(gs, event.PairLookup(inst.Binds, c.Binds), nil) {
			return false
		}
		return true
	}
}

// expired reports whether a buffered candidate can no longer match an
// arrival ending at end, or any later one, so it can be purged (the
// paper's first-class constraint checking during detection).
func (e *Engine) expired(p *graph.Node, c *event.Instance, end event.Time, arrivedRight bool) bool {
	if p.Kind == graph.KindSeq && arrivedRight {
		// c is a pending initiator; future terminators end no earlier
		// than end.
		if p.HasDist && c.End < end.Add(-p.Hi) {
			return true
		}
	}
	if p.HasWithin {
		// Future arrivals end no earlier than end; an old candidate
		// beginning more than Within before can never satisfy the
		// interval constraint again.
		slack := e.states[p.ID].closureDelay
		if c.Begin < end.Add(-p.Within-slack) {
			return true
		}
	}
	return false
}

// arm schedules st's reclaim event at the next multiple of its sweep
// period after t (the first one, for t ≥ 0), unless one is pending, so
// reclaim instants depend on virtual time alone.
func (e *Engine) arm(st *nodeState, t event.Time) {
	if st.armed || st.sweep == 0 {
		return
	}
	p := event.Time(st.sweep)
	if st.sweepAt = t - t%p + p; st.sweepAt <= t {
		st.sweepAt = event.MaxTime // the multiple overflows
	}
	st.armed = true
	heap.Push(&e.rq, st)
}

// sweepNode runs st's reclaim event. Buffered instances go once expired
// holds for them against the earliest End a future arrival can have, with
// the partitions left empty, and history entries once past Retention; the
// event re-arms while state that can still expire remains. A scan drops
// an instance only when its key returns, and a history prunes only when
// its node emits; without this, a node whose readers go quiet would hold
// its last window of instances, and an object read once its partition,
// forever. An instance is swept at most twice after it arrives: amortized
// O(1).
func (e *Engine) sweepNode(st *nodeState) {
	st.armed = false
	p := st.n
	if st.reclaimEvery > 0 {
		floor := e.now.Add(-st.lag)
		// Only terminators scan a sequence's left buffer.
		st.left.purge(func(c *event.Instance) bool { return e.expired(p, c, floor, p.Kind == graph.KindSeq) })
		if st.right != nil {
			// A sequence's waiting terminator also expires once every
			// future initiator ends no earlier than it begins.
			st.right.purge(func(c *event.Instance) bool {
				return e.expired(p, c, floor, false) || p.Kind == graph.KindSeq && c.Begin <= floor
			})
		}
	}
	if st.hist != nil && p.Retention > 0 {
		st.hist.pruneBefore(e.now.Add(-p.Retention - time.Nanosecond))
	}
	if st.expiring() {
		e.arm(st, e.now)
	}
}

// expiring reports whether st holds state its reclaim event can release.
func (st *nodeState) expiring() bool {
	if st.reclaimEvery > 0 && (st.left.len() > 0 || st.right != nil && st.right.len() > 0) {
		return true
	}
	return st.hist != nil && st.n.Retention > 0 && st.hist.len() > 0
}

// combine builds the detected instance from an initiator/left candidate
// and the arriving instance.
func (e *Engine) combine(p *graph.Node, c, inst *event.Instance) *event.Instance {
	begin, end := event.SpanWith(c, inst)
	return e.newInstance(begin, end, e.mergeBinds(c.Binds, inst.Binds), e.nextSeq())
}

// seqPullInitiator handles TSEQ/SEQ whose initiator is a pulled (queried)
// SEQ+/TSEQ+ node: on terminator arrival the initiator node is queried for
// determinably-closed sequences ending inside the distance window
// (paper's QUERY_INTERVAL_NODE).
func (e *Engine) seqPullInitiator(p *graph.Node, term *event.Instance) {
	l := p.Left()
	lo, hi := time.Duration(0), time.Duration(0)
	if p.HasDist {
		lo, hi = p.Lo, p.Hi
	} else {
		b, _ := p.Bound()
		hi = b
	}
	w0 := term.End.Add(-hi)
	w1 := term.End.Add(-lo)
	if w1 > term.Begin-1 {
		w1 = term.Begin - 1
	}
	var accept func(*event.Instance) bool
	if gs := e.states[p.ID].guard; gs != nil {
		accept = func(run *event.Instance) bool {
			return e.guardPass(gs, event.PairLookup(term.Binds, run.Binds), nil)
		}
	}
	filter := e.projectFilter(term.Binds, p.JoinVars)
	seqInst := e.querySeqPlus(l, w0, w1, filter, p.ID, accept)
	e.releaseFilter(filter)
	if seqInst == nil {
		return
	}
	if p.HasWithin && event.Interval2(seqInst, term) > p.Within {
		return
	}
	e.emit(p, e.combine(p, seqInst, term))
}

// seqPlusDeliver feeds an element into an eager SEQ+/TSEQ+ node: extend
// the open sequence when the adjacency bounds hold, otherwise close it and
// start anew (semantics in DESIGN.md §3).
func (e *Engine) seqPlusDeliver(n *graph.Node, inst *event.Instance) {
	if !n.HasDist && n.Mode == graph.ModePull {
		// Pull-mode SEQ+ is evaluated lazily from the child's history.
		return
	}
	st := e.states[n.ID]
	if st.open != nil {
		d := inst.End.Sub(st.open.last)
		broke := d < n.Lo || d > n.Hi
		if !broke && n.HasWithin && inst.End.Sub(st.open.begin) > n.Within {
			broke = true
		}
		if broke {
			e.closeOpen(n, st)
		}
	}
	if st.open == nil {
		if sp := st.spare; sp != nil {
			st.spare = nil
			sp.begin, sp.version = inst.Begin, e.nextSeq()
			st.open = sp
		} else {
			st.open = &openSeq{begin: inst.Begin, version: e.nextSeq()}
		}
	}
	st.open.elems = append(st.open.elems, inst.Binds)
	st.open.starts = append(st.open.starts, inst.Begin)
	st.open.last = inst.End
	st.open.version = e.nextSeq()
	st.addAccs(inst.Binds)
	if e.maxOpen > 0 && len(st.open.elems) > e.maxOpen {
		// Unbounded adjacent run (the stream never pauses): shed the
		// older half so memory stays bounded. Prefer WITHIN bounds on
		// the sequence; this is the lossy backstop.
		drop := len(st.open.elems) / 2
		e.m.Dropped += uint64(drop)
		st.open.elems = append(st.open.elems[:0:0], st.open.elems[drop:]...)
		st.open.starts = append(st.open.starts[:0:0], st.open.starts[drop:]...)
		st.open.begin = st.open.starts[0]
		st.rebuildAccs()
	}
	if n.Pseudo {
		ps := e.newPseudo()
		*ps = pseudoEvent{
			exec: inst.End.Add(n.Hi), node: n, strategy: graph.PseudoSeqPlusClose,
			version: st.open.version,
		}
		e.schedule(ps)
	}
}

// closeOpen finalizes the node's open sequence into an instance. Pushing
// nodes emit it; pulled nodes record it in history for later queries.
func (e *Engine) closeOpen(n *graph.Node, st *nodeState) {
	if st.open == nil {
		return
	}
	rec := st.open
	inst := e.newInstance(rec.begin, rec.last, event.CollectLists(rec.elems, &e.slab), e.nextSeq())
	accs := rec.accs
	st.open = nil
	// The guard reads the run's running accumulators; the Seq number is
	// consumed whether or not it passes.
	pass := st.guard == nil || e.guardPass(st.guard, event.BindsLookup(inst.Binds), accs)
	// CollectLists copied the element values out and the emitted instance
	// owns its own bindings, so the run's struct and arrays recycle for
	// the node's next open sequence.
	clear(rec.elems)
	*rec = openSeq{elems: rec.elems[:0], starts: rec.starts[:0]}
	st.spare = rec
	if !pass {
		return
	}
	if n.Pseudo {
		e.emit(n, inst)
		return
	}
	if n.HasWithin && inst.Interval() > n.Within {
		return
	}
	e.m.Emitted++
	if st.hist != nil {
		e.record(st, inst)
	}
}

// lazyClose closes a pulled TSEQ+'s open sequence once no further element
// can extend it (every observation up to e.now has been seen).
func (e *Engine) lazyClose(n *graph.Node, st *nodeState) {
	if st.open != nil && n.HasDist && st.open.last.Add(n.Hi) < e.now {
		e.closeOpen(n, st)
	}
}

// querySeqPlus returns the oldest sequence instance of a pulled SEQ+/TSEQ+
// node ending inside [w0, w1] that the consumer node has not yet claimed,
// or nil; the returned instance is claimed for that consumer (chronicle).
// accept, when non-nil, is the consumer's admissibility predicate (its
// guard over the joined bindings); a rejected run is not consumed, and on
// the eager path the scan continues to older runs.
func (e *Engine) querySeqPlus(n *graph.Node, w0, w1 event.Time, filter event.Bindings, consumer int, accept func(*event.Instance) bool) *event.Instance {
	st := e.states[n.ID]
	if n.HasDist {
		// Eagerly built TSEQ+: close lazily, then take from history.
		// The node's own guard was applied at closeOpen, before the run
		// entered history.
		e.lazyClose(n, st)
		var found *event.Instance
		if st.hist == nil {
			return nil
		}
		st.hist.inWindow(w0, w1, filter, consumer, func(in *event.Instance) bool {
			if accept != nil && !accept(in) {
				return true
			}
			found = in
			return false
		})
		if found != nil {
			st.hist.markConsumed(consumer, found)
		}
		return found
	}
	// Pull-mode SEQ+: one maximal sequence of all child occurrences in the
	// window (adjacency is unconstrained).
	child := n.Child()
	cst := e.states[child.ID]
	if cst.hist == nil {
		return nil
	}
	var elems []event.Bindings
	var begin, end event.Time
	var members []*event.Instance
	cst.hist.inWindow(w0, w1, filter, consumer, func(in *event.Instance) bool {
		if len(elems) == 0 || in.Begin < begin {
			begin = in.Begin
		}
		if in.End > end {
			end = in.End
		}
		elems = append(elems, in.Binds)
		members = append(members, in)
		return true
	})
	if len(elems) == 0 {
		return nil
	}
	// The Seq number is consumed before the guards, so a rejected run
	// still shifts the numbering of later instances.
	seqInst := e.newInstance(begin, end, event.CollectLists(elems, &e.slab), e.nextSeq())
	if st.guard != nil && !e.guardPass(st.guard, event.BindsLookup(seqInst.Binds), nil) {
		return nil
	}
	if accept != nil && !accept(seqInst) {
		return nil
	}
	for _, m := range members {
		cst.hist.markConsumed(consumer, m)
	}
	return seqInst
}

// occurs reports whether node n has an occurrence in [a, b] compatible
// with filter. Used for negation checks.
func (e *Engine) occurs(n *graph.Node, a, b event.Time, filter event.Bindings) bool {
	st := e.states[n.ID]
	if n.Kind == graph.KindSeqPlus && !n.Pseudo {
		e.lazyClose(n, st)
	}
	return st.hist != nil && st.hist.occurs(a, b, filter)
}

// fire executes a pseudo event (paper's pseudo-event handling in RCEDA).
func (e *Engine) fire(ps *pseudoEvent) {
	switch ps.strategy {
	case graph.PseudoAndNotExpire:
		p := ps.node
		neg := p.Children[p.NotChild].Child()
		filter := e.projectFilter(ps.payload.Binds, p.JoinVars)
		hit := e.occurs(neg, ps.w0, ps.w1, filter)
		e.releaseFilter(filter)
		if hit {
			return
		}
		e.emit(p, e.newInstance(ps.payload.Begin, ps.w1, ps.payload.Binds, e.nextSeq()))
	case graph.PseudoSeqNotTerm:
		p := ps.node
		neg := p.Right().Child()
		filter := e.projectFilter(ps.payload.Binds, p.JoinVars)
		hit := e.occurs(neg, ps.w0, ps.w1, filter)
		e.releaseFilter(filter)
		if hit {
			return
		}
		e.emit(p, e.newInstance(ps.payload.Begin, ps.w1, ps.payload.Binds, e.nextSeq()))
	case graph.PseudoSeqPlusClose:
		st := e.states[ps.node.ID]
		if st.open != nil && st.open.version == ps.version {
			e.closeOpen(ps.node, st)
		}
	}
}
