package wire

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrRingFull is returned by TrySendFrame when the unacked ring is at
// capacity and no shed policy is configured: the caller must either wait
// (SendBatch/SendFrame block) or treat the link as saturated.
var ErrRingFull = errors.New("wire: unacked ring is full")

// ReliableClient is the fault-tolerant counterpart of Client for edge
// readers: every batch/advance frame gets a monotonically increasing
// sequence number and stays in a bounded in-memory ring (optionally
// journaled to a Spool) until the server acknowledges it. When the
// connection drops, the client reconnects with exponential backoff plus
// seeded jitter and replays everything unacked; the server dedupes by
// (client_id, seq), so observations are applied to the engine exactly
// once even though the wire is at-least-once.
//
// Rule firings received while connected are delivered via OnFire and not
// kept; during an outage broadcasts are missed (the authoritative record
// is the server's store and OnDetection hook).
type ReliableClient struct {
	opt  ReliableOptions
	addr string

	mu   sync.Mutex
	cond *sync.Cond
	// ring is circular and allocated once: the count unacked frames, in
	// ascending Seq (with gaps where frames were shed), are at(0) through
	// at(count-1).
	ring        []*Message
	head, count int
	acked       uint64 // highest cumulative ack from the server
	next        uint64 // next sequence number to assign
	// The session writer puts frames outside the lock, so a frame it took
	// must not be recycled until it is put: sendLo..sendHi are the seqs
	// it has taken and may still be putting. sendHi is set under mu when
	// frames are taken and cleared before the next take; sendLo advances,
	// without the lock, as each frame is put.
	sendLo     atomic.Uint64
	sendHi     uint64
	closing    bool  // Close has begun; no new Sends
	wantBye    bool  // drain complete → send bye, await stats
	aborted    bool  // give up: stop the connection manager
	failed     error // terminal failure (dial attempts exhausted)
	haveStats  bool
	stats      Message
	reconnects int
	timedOut   bool   // Close drain deadline expired
	shed       uint64 // observations dropped by the overload policy

	abortCh chan struct{} // closed exactly once on abort/terminal failure
	doneCh  chan struct{} // closed when the connection manager exits
	rng     *rand.Rand    // reconnect jitter, used under mu

	greeted bool // an ack has arrived: the first one answers the session's hello
}

// ReliableOptions tunes a ReliableClient. The zero value of every field
// gets a sensible default except ClientID, which is required: it is the
// identity the server dedupes on and must be stable across reconnects
// (and across process restarts when a Spool is used — but never reused
// for a different logical feed, or the server will drop its frames as
// stale replays).
type ReliableOptions struct {
	ClientID string

	// Dial opens the transport; defaults to a 5s TCP dial of the address
	// given to DialReliable. Fault injection and TLS both hook in here.
	Dial func() (net.Conn, error)

	// Buffer bounds the unacked ring (default 1024). A full ring blocks
	// SendBatch — backpressure toward the edge reader instead of silent loss.
	Buffer int

	// Reconnect delays start at Backoff (default 50ms) and double up to
	// MaxBackoff (default 5s), each spread by ±20% jitter.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed seeds this client's private jitter RNG for reproducible tests.
	// When zero, the seed is derived from ClientID, so a fleet of clients
	// restarting together still spreads its reconnects instead of jittering
	// in lockstep off a shared zero seed.
	Seed int64
	// MaxAttempts caps consecutive failed dials before the client fails
	// terminally (0 = retry forever).
	MaxAttempts int

	// DrainTimeout bounds how long Close waits for outstanding acks and
	// the final stats exchange (default 10s).
	DrainTimeout time.Duration

	// Keepalive, when > 0, sends a ping frame to the server on this
	// interval while a session is up, so a silently dead link is detected
	// even when the feed itself is idle: a server that sends nothing
	// (acks, pongs, pings, fires) for 3×Keepalive is treated as dead and
	// the client reconnects. Zero disables the machinery.
	Keepalive time.Duration

	// Spool, when set, journals every sequenced frame and ack so a
	// restarted process resumes the feed (see OpenSpool).
	Spool *Spool

	// DropOldestOnFull switches the overload policy from backpressure to
	// load shedding: when the unacked ring is full, the oldest sheddable
	// frame (type "batch") is dropped — and counted via Shed/OnShed —
	// instead of the send blocking. Saturation then costs coverage of the
	// oldest observations, never latency or ordering: the server applies
	// sequenced frames in seq order and tolerates gaps, so the surviving
	// stream is a prefix-dropped subsequence. Frames that carry protocol
	// state (advance, assign, sync, ...) are never shed; a ring full of
	// only those still blocks.
	DropOldestOnFull bool
	// OnShed observes each frame dropped by DropOldestOnFull. The frame's
	// Batch is valid only during the callback: its storage is recycled.
	OnShed func(Message)
	// OnFire, when set, receives rule firings as they arrive. A firing's
	// Bindings is valid during the callback only: maps.Clone keeps it.
	OnFire func(Message)
	// OnReconnect is called after each lost session, with the total
	// reconnect count.
	OnReconnect func(reconnects int)
	// OnFrame observes server frames the client does not consume itself
	// (anything but ack/fire/ping/stats — e.g. error frames, or the
	// cluster protocol's dets/ckptres replies). It runs on the session's
	// read goroutine: it must not block on this client's own SendBatch/Flush.
	OnFrame func(Message)
}

// Backoff growth factor and jitter fraction of every reconnect delay.
const (
	backoffMultiplier = 2
	backoffJitter     = 0.2
)

// validate rejects nonsensical option values with an error naming the
// field, instead of silently "defaulting" them into something the caller
// did not ask for. Zero values still mean "use the default".
func (o *ReliableOptions) validate() error {
	if o.ClientID == "" {
		return errors.New("wire: ReliableOptions.ClientID is required")
	}
	if o.Buffer < 0 {
		return fmt.Errorf("wire: negative unacked-ring size %d", o.Buffer)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"Backoff", o.Backoff},
		{"MaxBackoff", o.MaxBackoff},
		{"DrainTimeout", o.DrainTimeout},
		{"Keepalive", o.Keepalive},
	} {
		if d.v < 0 {
			return fmt.Errorf("wire: negative %s %v", d.name, d.v)
		}
	}
	if o.MaxBackoff > 0 && o.Backoff > 0 && o.MaxBackoff < o.Backoff {
		return fmt.Errorf("wire: MaxBackoff %v below initial Backoff %v", o.MaxBackoff, o.Backoff)
	}
	if o.MaxAttempts < 0 {
		return fmt.Errorf("wire: negative MaxAttempts %d", o.MaxAttempts)
	}
	return nil
}

// DialReliable starts a reliable feed to addr. It returns immediately;
// the connection is established (and re-established) in the background,
// and SendBatch buffers until the link is up.
func DialReliable(addr string, opt ReliableOptions) (*ReliableClient, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Dial == nil {
		opt.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
	}
	if opt.Buffer == 0 {
		opt.Buffer = 1024
	}
	if opt.Backoff == 0 {
		opt.Backoff = 50 * time.Millisecond
	}
	if opt.MaxBackoff == 0 {
		opt.MaxBackoff = 5 * time.Second
	}
	if opt.MaxBackoff < opt.Backoff {
		opt.MaxBackoff = opt.Backoff
	}
	if opt.DrainTimeout == 0 {
		opt.DrainTimeout = 10 * time.Second
	}
	c := &ReliableClient{
		opt:     opt,
		addr:    addr,
		next:    1,
		abortCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	seed := opt.Seed
	if seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(opt.ClientID))
		seed = int64(h.Sum64())
	}
	c.rng = rand.New(rand.NewSource(seed))
	c.cond = sync.NewCond(&c.mu)
	var pending []Message
	if sp := opt.Spool; sp != nil {
		pending = sp.Pending()
		if len(pending) > 0 && pending[0].ClientID != opt.ClientID {
			return nil, fmt.Errorf("wire: spool belongs to client %q, not %q", pending[0].ClientID, opt.ClientID)
		}
		c.acked = sp.LastAck()
		c.next = sp.LastSeq() + 1
	}
	c.ring = make([]*Message, max(opt.Buffer, len(pending)))
	for i := range pending {
		c.ring[i] = &pending[i]
	}
	c.count = len(pending)
	go c.run()
	return c, nil
}

// SendBatch streams one read cycle of observations through the reliable
// feed: one sequenced batch frame — one seq, one ack, one engine
// hand-off — per MaxBatchFrame observations. It blocks only when the
// unacked ring is full, and fails once the client is closing or
// terminally failed. The input slice is not retained: it is copied into a
// recycled frame.
func (c *ReliableClient) SendBatch(batch []BatchObs) error {
	for len(batch) > 0 {
		n := min(len(batch), MaxBatchFrame)
		if _, err := c.enqueue(&Message{Type: "batch", Batch: batch[:n]}); err != nil {
			return err
		}
		batch = batch[n:]
	}
	return nil
}

// BatchNegotiated reports whether the server has answered this feed's
// first hello. It is a leftover of the batch-frame handshake, kept only
// for the benchmark's connect wait; it goes in the next benchmark change.
func (c *ReliableClient) BatchNegotiated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.greeted
}

// Advance moves the server's virtual clock forward, with the same
// delivery guarantee as SendBatch: advances change detection state (negation
// windows close on them), so they are sequenced and replayed too.
func (c *ReliableClient) Advance(at time.Duration) error {
	_, err := c.enqueue(&Message{Type: "advance", AtNS: int64(at)})
	return err
}

// SendFrame enqueues an arbitrary protocol frame through the sequenced,
// acked, replayed delivery path — the transport for protocol extensions
// (the cluster coordinator's assign/sync/ckpt/drain frames). The frame's
// ClientID and Seq are assigned by the client; Type must be set. It
// returns the sequence number assigned to the frame, so a caller can
// match a later reply that echoes it.
func (c *ReliableClient) SendFrame(m Message) (uint64, error) {
	if m.Type == "" {
		return 0, errors.New("wire: SendFrame requires a frame type")
	}
	return c.enqueue(&m)
}

// TrySendFrame is SendFrame without the backpressure: when the unacked
// ring is full it returns ErrRingFull immediately (or sheds the oldest
// observation if DropOldestOnFull is set) instead of blocking. A cluster
// coordinator uses it to keep feeding a detached worker's replay ring
// without ever stalling the healthy shards behind a partitioned link.
func (c *ReliableClient) TrySendFrame(m Message) (uint64, error) {
	if m.Type == "" {
		return 0, errors.New("wire: SendFrame requires a frame type")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count >= c.opt.Buffer && !c.shedOldestLocked() {
		return 0, ErrRingFull
	}
	return c.enqueueLocked(&m)
}

// Unacked reports how many sequenced frames are waiting for a server
// ack — the ring depth, and the watermark overload control reads.
func (c *ReliableClient) Unacked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Shed reports how many observations the DropOldestOnFull policy has
// discarded.
func (c *ReliableClient) Shed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shed
}

// shedOldestLocked drops the oldest sheddable (batch) frame from the
// ring, reporting whether a slot was freed. Only observations are safe
// to shed: the server applies frames in seq order but tolerates
// seq gaps, and a missing observation (or whole read cycle) degrades
// coverage, while a missing advance/assign/sync frame would corrupt
// protocol state.
func (c *ReliableClient) shedOldestLocked() bool {
	if !c.opt.DropOldestOnFull {
		return false
	}
	for i := 0; i < c.count; i++ {
		dropped := c.at(i)
		if dropped.Type != "batch" {
			continue
		}
		c.shed += uint64(len(dropped.Batch))
		if cb := c.opt.OnShed; cb != nil {
			cb(*dropped)
		}
		// Rotate the shed frame to the front, keeping the others in
		// order, and release it from there.
		for ; i > 0; i-- {
			c.ring[c.slot(i)] = c.at(i - 1)
		}
		c.ring[c.head] = dropped
		c.releaseLocked(1)
		return true
	}
	return false
}

// slot is the ring index of the i-th oldest unacked frame, and at the
// frame itself.
func (c *ReliableClient) slot(i int) int {
	if i += c.head; i >= len(c.ring) {
		i -= len(c.ring)
	}
	return i
}

func (c *ReliableClient) at(i int) *Message { return c.ring[c.slot(i)] }

// after is the ring position of the first frame with a seq above seq.
// A binary search, not seq arithmetic: shedding can leave gaps in the
// ring's ascending seqs.
func (c *ReliableClient) after(seq uint64) int {
	return sort.Search(c.count, func(i int) bool { return c.at(i).Seq > seq })
}

// takeLocked appends the frames past cursor to batch for the session
// writer to put, and makes them the window release leaves alone.
func (c *ReliableClient) takeLocked(cursor uint64, batch []*Message) []*Message {
	for i := c.after(cursor); i < c.count; i++ {
		batch = append(batch, c.at(i))
	}
	if len(batch) > 0 {
		c.sendLo.Store(batch[0].Seq)
		c.sendHi = batch[len(batch)-1].Seq
	}
	return batch
}

// framePool recycles ring frames together with their Batch storage, so a
// steady feed copies each read cycle into storage it already owns. A
// pool, not storage kept in the ring's slots: an idle client's frames go
// back to the collector.
var framePool = sync.Pool{New: func() any { return new(Message) }}

// releaseLocked drops the n oldest frames from the ring and recycles
// them, except a frame the session writer has taken and may still be
// putting: that one is left to the collector.
func (c *ReliableClient) releaseLocked(n int) {
	lo := c.sendLo.Load()
	for i := 0; i < n; i++ {
		s := c.slot(i)
		f := c.ring[s]
		c.ring[s] = nil
		if f.Seq < lo || f.Seq > c.sendHi {
			*f = Message{Batch: f.Batch[:0]}
			framePool.Put(f)
		}
	}
	c.head = c.slot(n)
	c.count -= n
}

func (c *ReliableClient) enqueue(m *Message) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.count >= c.opt.Buffer && c.failed == nil && !c.closing && !c.aborted {
		if c.shedOldestLocked() {
			break
		}
		c.cond.Wait()
	}
	return c.enqueueLocked(m)
}

// enqueueLocked sequences a copy of m, its Batch included, in a recycled
// frame at the back of the ring; m is not retained.
func (c *ReliableClient) enqueueLocked(m *Message) (uint64, error) {
	if c.failed != nil {
		return 0, c.failed
	}
	if c.closing || c.aborted {
		return 0, errors.New("wire: client is closed")
	}
	f := framePool.Get().(*Message)
	batch := f.Batch[:0]
	*f = *m
	f.Batch = append(batch, m.Batch...)
	f.ClientID = c.opt.ClientID
	f.Seq = c.next
	if c.opt.Spool != nil {
		if err := c.opt.Spool.Append(*f); err != nil {
			return 0, fmt.Errorf("wire: spool: %w", err)
		}
	}
	c.next++
	c.ring[c.slot(c.count)] = f
	c.count++
	c.cond.Broadcast()
	return f.Seq, nil
}

// Flush blocks until every frame sent so far is acked, the timeout
// expires, or the client fails.
func (c *ReliableClient) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	expired := false
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		expired = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.acked < c.next-1 && c.failed == nil && !expired {
		c.cond.Wait()
	}
	if c.failed != nil {
		return c.failed
	}
	if c.acked < c.next-1 {
		return fmt.Errorf("wire: flush timed out before %s with %d frames unacked", deadline.Format("15:04:05"), int(c.next-1-c.acked))
	}
	return nil
}

// Reconnects reports how many times the session was lost and re-dialed.
func (c *ReliableClient) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Acked reports the highest cumulative ack received.
func (c *ReliableClient) Acked() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// Close drains outstanding frames, performs the bye/stats exchange, and
// stops the connection manager. On drain timeout or terminal failure the
// unacked frames stay in the spool (if any) for the next process.
func (c *ReliableClient) Close() (Message, error) {
	timer := time.AfterFunc(c.opt.DrainTimeout, func() {
		c.mu.Lock()
		c.timedOut = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer timer.Stop()

	c.mu.Lock()
	c.closing = true
	c.wantBye = true
	c.cond.Broadcast()
	for !c.haveStats && c.failed == nil && !c.timedOut && !c.aborted {
		c.cond.Wait()
	}
	stats, ok := c.stats, c.haveStats
	err := c.failed
	unacked := c.count
	c.mu.Unlock()

	c.abort()
	<-c.doneCh
	if sp := c.opt.Spool; sp != nil {
		if serr := sp.Close(); serr != nil && err == nil && ok {
			err = serr
		}
	}
	if ok {
		return stats, err
	}
	if err == nil {
		err = fmt.Errorf("wire: close timed out with %d frames unacked", unacked)
	}
	return Message{}, err
}

// Abort stops the client immediately: no drain, no bye/stats exchange.
// Unacked frames are dropped from memory but stay in the spool (if any)
// for a later process. It is the teardown for a peer that is already
// gone — a cluster coordinator abandoning the link to a crashed worker
// uses it so re-placement is not gated on a drain timeout. Idempotent;
// safe to combine with a later Close (which returns promptly).
func (c *ReliableClient) Abort() {
	c.abort()
	<-c.doneCh
	if sp := c.opt.Spool; sp != nil {
		_ = sp.Close()
	}
}

// abort stops the connection manager (idempotent).
func (c *ReliableClient) abort() {
	c.mu.Lock()
	if !c.aborted {
		c.aborted = true
		close(c.abortCh)
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// fail records a terminal failure and stops the manager.
func (c *ReliableClient) fail(err error) {
	c.mu.Lock()
	if c.failed == nil {
		c.failed = err
	}
	c.mu.Unlock()
	c.abort()
}

// run is the connection manager: dial with backoff, run a session,
// repeat until a clean exit or abort.
func (c *ReliableClient) run() {
	defer close(c.doneCh)
	backoff := c.opt.Backoff
	attempts := 0
	for {
		select {
		case <-c.abortCh:
			return
		default:
		}
		conn, err := c.opt.Dial()
		if err != nil {
			attempts++
			if c.opt.MaxAttempts > 0 && attempts >= c.opt.MaxAttempts {
				c.fail(fmt.Errorf("wire: giving up after %d dial attempts: %w", attempts, err))
				return
			}
			if !c.sleep(c.jittered(backoff)) {
				return
			}
			backoff = c.nextBackoff(backoff)
			continue
		}
		attempts, backoff = 0, c.opt.Backoff
		clean := c.session(conn)
		conn.Close()
		if clean {
			return
		}
		c.mu.Lock()
		c.reconnects++
		n := c.reconnects
		cb := c.opt.OnReconnect
		c.mu.Unlock()
		if cb != nil {
			cb(n)
		}
		if !c.sleep(c.jittered(backoff)) {
			return
		}
		backoff = c.nextBackoff(backoff)
	}
}

func (c *ReliableClient) nextBackoff(d time.Duration) time.Duration {
	d *= backoffMultiplier
	if d > c.opt.MaxBackoff {
		d = c.opt.MaxBackoff
	}
	return d
}

// jittered spreads d by ±backoffJitter so a fleet of edge clients does
// not reconnect in lockstep after a server restart.
func (c *ReliableClient) jittered(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 1 + backoffJitter*(2*c.rng.Float64()-1)
	c.mu.Unlock()
	j := time.Duration(float64(d) * f)
	if j < time.Millisecond {
		j = time.Millisecond
	}
	return j
}

// sleep waits d or until abort; it reports whether the manager should
// keep running.
func (c *ReliableClient) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-c.abortCh:
		return false
	}
}

// session drives one connection: hello/resume, replay of unacked frames,
// streaming of new ones, and the bye/stats exchange once draining. It
// reports whether the client is finished (stats received or aborted) as
// opposed to needing a reconnect.
func (c *ReliableClient) session(conn net.Conn) bool {
	// Ring frames are flushed once per batch taken; hello, bye, ping and
	// pong are sent at once.
	w := NewFrameWriter(conn)

	// dead is guarded by c.mu; kill unblocks both the reader (via the
	// conn close) and the writer (via the broadcast).
	dead := false
	kill := func() {
		c.mu.Lock()
		dead = true
		c.mu.Unlock()
		conn.Close()
		c.cond.Broadcast()
	}

	// An abort (Close timeout) must unstick a session blocked in a TCP
	// write, not just one waiting on the cond.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-c.abortCh:
			conn.Close()
		case <-stopWatch:
		}
	}()

	// The hello answer (an ack) tells us how far a previous session or
	// process already got.
	if err := w.Send(&Message{Type: "hello", ClientID: c.opt.ClientID}); err != nil {
		return false
	}

	// Client-side keepalive: ping the server on the interval so a
	// silently dead link fails the read deadline below instead of
	// blocking an idle feed forever.
	if c.opt.Keepalive > 0 {
		stopPing := make(chan struct{})
		defer close(stopPing)
		go func() {
			t := time.NewTicker(c.opt.Keepalive)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := w.Send(&Message{Type: "ping"}); err != nil {
						kill()
						return
					}
				case <-stopPing:
					return
				}
			}
		}()
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		fr := NewFrameReader(conn)
		// Read resets m; callbacks get copies, but a fire's Bindings is
		// the reader's map, valid until the next Read.
		var m Message
		for {
			if c.opt.Keepalive > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(deadIntervals * c.opt.Keepalive))
			}
			if err := fr.Read(&m); err != nil {
				kill()
				return
			}
			switch m.Type {
			case "ack":
				c.handleAck(m.Seq)
			case "fire":
				if cb := c.opt.OnFire; cb != nil {
					cb(m)
				}
			case "ping":
				if err := w.Send(&Message{Type: "pong"}); err != nil {
					kill()
					return
				}
			case "pong":
				// Keepalive reply; the read itself refreshed the deadline.
			case "stats":
				c.mu.Lock()
				c.stats = m
				c.haveStats = true
				c.mu.Unlock()
				c.cond.Broadcast()
				kill()
				return
			default:
				// Frames the client does not consume itself — error
				// frames (the engine rejected a frame; redelivery cannot
				// fix it, so they are not fatal to the session) and
				// protocol-extension replies — go to OnFrame.
				if cb := c.opt.OnFrame; cb != nil {
					cb(m)
				}
			}
		}
	}()

	// Writer: replay everything past the server's high-water mark, then
	// stream new frames as they are enqueued. batch is reused across
	// wakes and cleared after each, so it pins no released frame. The
	// frames it holds are the sendLo..sendHi window.
	cursor := uint64(0)
	c.mu.Lock()
	cursor = c.acked
	c.mu.Unlock()
	byeSent := false
	finished := false
	var batch []*Message
	for {
		batch = batch[:0]
		sendBye := false
		c.mu.Lock()
		c.sendHi = 0
		for {
			if dead {
				c.mu.Unlock()
				goto out
			}
			if c.haveStats || c.aborted {
				finished = true
				c.mu.Unlock()
				goto out
			}
			if cursor < c.acked {
				cursor = c.acked // acks advanced past our replay cursor
			}
			if batch = c.takeLocked(cursor, batch); len(batch) > 0 {
				break
			}
			if c.wantBye && !byeSent && c.acked == c.next-1 {
				sendBye = true
				break
			}
			c.cond.Wait()
		}
		c.mu.Unlock()
		for _, f := range batch {
			seq := f.Seq
			c.sendLo.Store(seq)
			if err := w.Put(f); err != nil {
				kill()
				goto out
			}
			cursor = seq
		}
		clear(batch)
		if err := w.Flush(); err != nil {
			kill()
			goto out
		}
		if sendBye {
			if err := w.Send(&Message{Type: "bye"}); err != nil {
				kill()
				goto out
			}
			byeSent = true
		}
	}
out:
	// Make sure the reader is gone before the caller closes the conn and
	// a new session reuses the client state.
	conn.Close()
	<-readerDone
	if !finished {
		c.mu.Lock()
		finished = c.haveStats || c.aborted
		c.mu.Unlock()
	}
	return finished
}

// handleAck releases every ring frame covered by the cumulative ack.
func (c *ReliableClient) handleAck(seq uint64) {
	c.mu.Lock()
	c.greeted = true
	if seq > c.acked {
		if seq >= c.next {
			// The server knows this client ID from a previous life with
			// more frames than we ever sent: a ClientID reuse. Nothing
			// sane to release beyond our own window.
			seq = c.next - 1
		}
		// The ring's seqs ascend but may have shed gaps; release
		// exactly the frames the cumulative ack covers.
		c.releaseLocked(c.after(seq))
		c.acked = seq
		if c.opt.Spool != nil {
			_ = c.opt.Spool.Ack(seq)
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}
