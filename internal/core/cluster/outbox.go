package cluster

import "rcep/internal/wire"

// outbox holds a feed's detections from the moment the engine fires them
// until the coordinator confirms it merged them. It replaces the old
// fire-and-forget dets buffer (cleared into each sync reply, protected
// only by a small cached-reply window): every sync and drain reply now
// carries the FULL unconfirmed set, and entries are trimmed only when a
// later sync frame carries the coordinator's detection high-water mark
// (Message.DetSeq). The coordinator dedupes by dseq, so re-sending a
// superset is always safe — and a reply lost to a flaky link during a
// long partition can never strand a detection, no matter how many
// reconnect replays happen in between. A worker that crashes loses its
// outbox with its engines; the coordinator re-places the shard and the
// new engine re-detects from the journal.
type outbox struct {
	mem       []wire.ClusterDet // unconfirmed, ascending dseq
	confirmed uint64            // coordinator-confirmed detection high-water mark
}

// newOutbox starts the outbox for one assigned shard. A fresh assign
// starts a fresh detection lineage at base (the coordinator's confirmed
// DetSeq): the new engine re-detects everything past it
// deterministically.
func newOutbox(base uint64) *outbox { return &outbox{confirmed: base} }

func (ob *outbox) add(d wire.ClusterDet) { ob.mem = append(ob.mem, d) }

// confirm trims everything at or below the coordinator's high-water
// mark. Marks are cumulative, so a stale (replayed) frame's lower mark
// is a no-op.
func (ob *outbox) confirm(detHigh uint64) {
	if detHigh <= ob.confirmed {
		return
	}
	ob.confirmed = detHigh
	i := 0
	for i < len(ob.mem) && ob.mem[i].Dseq <= detHigh {
		i++
	}
	ob.mem = append(ob.mem[:0], ob.mem[i:]...)
}

// pending returns a copy of the unconfirmed detections, in dseq order —
// the payload of every sync and drain reply, fresh or replayed.
func (ob *outbox) pending() []wire.ClusterDet {
	return append([]wire.ClusterDet(nil), ob.mem...)
}
