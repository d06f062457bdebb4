package shard

import (
	"bytes"
	"fmt"
	"io"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// Host owns one shard's detect.Engine. The in-process shard worker and a
// cluster worker's feed both drive their shard through it, so the two
// agree on how a shard is built, how its detections are numbered and held,
// and which clock moves are stale. Its driver serializes the calls.
type Host struct {
	eng *detect.Engine

	// seq numbers detections in firing order; dets holds the fired ones
	// not yet confirmed, ascending by Seq, and confirmed is the highest
	// mark Confirm has seen.
	seq       uint64
	confirmed uint64
	dets      []Detection
	drained   bool
}

// NewHost builds shard s of part with cfg's Groups, TypeOf, Limits and
// Interner (nil: the engine makes its own), numbering detections from 1.
func NewHost(part *Partition, s int, cfg Config) (*Host, error) {
	b := graph.NewBuilder()
	for _, r := range part.ByShard[s] {
		if _, err := b.AddRule(r.ID, r.Expr); err != nil {
			return nil, err
		}
	}
	h := &Host{}
	eng, err := detect.New(detect.Config{
		Graph:  b.Finalize(),
		Groups: cfg.Groups,
		TypeOf: cfg.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) {
			h.seq++
			h.dets = append(h.dets, Detection{Fire: h.eng.Now(), Rule: rid, Seq: h.seq, Inst: inst})
		},
		Limits:   cfg.Limits,
		Interner: cfg.Interner,
	})
	if err != nil {
		return nil, err
	}
	h.eng = eng
	return h, nil
}

// Ingest applies one time-ordered batch. The engine does not retain it.
func (h *Host) Ingest(b event.Batch) error { return h.eng.IngestBatch(b) }

// Advance moves the shard clock to t. An explicit advance fires every
// pseudo event due at or before t, also when the shard stands at t
// already, as a single engine would; a barrier catch-up (strict) fires
// only those due before t, since an observation at t may still arrive.
// An earlier t is stale (a drain can carry the shard past its driver's
// clock) and is skipped.
func (h *Host) Advance(t event.Time, strict bool) error {
	switch {
	case t < h.eng.Now():
		return nil
	case strict:
		return h.eng.AdvanceBefore(t)
	}
	return h.eng.AdvanceTo(t)
}

// Drain fires every pending pseudo event, once.
func (h *Host) Drain() {
	if !h.drained {
		h.eng.Close()
		h.drained = true
	}
}

// Seq returns the last detection number handed out (the base if none).
func (h *Host) Seq() uint64 { return h.seq }

// Pending returns the fired detections not yet confirmed, ascending by
// Seq. The slice is the host's own and is valid until the next call.
func (h *Host) Pending() []Detection { return h.dets }

// Confirm drops every held detection numbered at or below mark. Marks
// are cumulative, so one at or below an earlier mark does nothing.
func (h *Host) Confirm(mark uint64) {
	if mark <= h.confirmed {
		return
	}
	h.confirmed = mark
	i := 0
	for i < len(h.dets) && h.dets[i].Seq <= mark {
		i++
	}
	h.dets = append(h.dets[:0], h.dets[i:]...)
}

// Save writes the engine's checkpoint.
func (h *Host) Save(w io.Writer) error { return h.eng.SaveCheckpoint(w) }

// Restore loads an engine checkpoint into the fresh host and numbers
// detections after base, everything up to base confirmed. A restore that
// panics on corrupt bytes returns an error, so a bad checkpoint degrades
// to the caller's fallback instead of taking the process down.
func (h *Host) Restore(ck []byte, base uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("corrupt checkpoint: restore panicked: %v", r)
		}
	}()
	if err := h.eng.RestoreCheckpoint(bytes.NewReader(ck)); err != nil {
		return fmt.Errorf("corrupt checkpoint: %w", err)
	}
	h.seq, h.confirmed = base, base
	return nil
}

// Metrics returns the engine's activity counters.
func (h *Host) Metrics() detect.Metrics { return h.eng.Metrics() }
