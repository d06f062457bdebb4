package wire

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// ErrRingFull is returned by TrySendFrame when the unacked ring is at
// capacity and no shed policy is configured: the caller must either wait
// (Send/SendFrame block) or treat the link as saturated.
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

	mu         sync.Mutex
	cond       *sync.Cond
	ring       []Message // unacked frames; contiguous ascending Seq, ring[0].Seq == acked+1
	acked      uint64    // highest cumulative ack from the server
	next       uint64    // next sequence number to assign
	closing    bool      // Close has begun; no new Sends
	wantBye    bool      // drain complete → send bye, await stats
	aborted    bool      // give up: stop the connection manager
	failed     error     // terminal failure (dial attempts exhausted)
	haveStats  bool
	stats      Message
	reconnects int
	timedOut   bool   // Close drain deadline expired
	shed       uint64 // observations dropped by the overload policy

	abortCh chan struct{} // closed exactly once on abort/terminal failure
	doneCh  chan struct{} // closed when the connection manager exits
	randf   func() float64

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
	// Send — backpressure toward the edge reader instead of silent loss.
	Buffer int

	Backoff    time.Duration // initial reconnect delay (default 50ms)
	MaxBackoff time.Duration // backoff cap (default 5s)
	Multiplier float64       // backoff growth factor (default 2; 0 = default)
	Jitter     float64       // ± fraction of each delay (default 0.2)
	// Seed seeds this client's private jitter RNG for reproducible tests.
	// When zero, the seed is derived from ClientID, so a fleet of clients
	// restarting together still spreads its reconnects instead of jittering
	// in lockstep off a shared zero seed.
	Seed int64
	// Rand, when set, replaces the jitter RNG entirely with a caller-owned
	// source of values in [0, 1). It is called serially under the client's
	// lock, so a plain *rand.Rand method is safe; chaos harnesses inject a
	// deterministic sequence here.
	Rand func() float64
	// MaxAttempts caps consecutive failed dials before the client fails
	// terminally (0 = retry forever).
	MaxAttempts int

	// DrainTimeout bounds how long Close waits for outstanding acks and
	// the final stats exchange (default 10s).
	DrainTimeout time.Duration

	// Keepalive, when > 0, sends a ping frame to the server on this
	// interval while a session is up, so a silently dead link is detected
	// even when the feed itself is idle. PeerTimeout is the matching read
	// deadline: a server that sends nothing (acks, pongs, pings, fires)
	// for longer than PeerTimeout is treated as dead and the client
	// reconnects. Zero PeerTimeout with Keepalive set defaults to
	// 3×Keepalive; both zero disables the machinery.
	Keepalive   time.Duration
	PeerTimeout time.Duration

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
	// OnShed observes each frame dropped by DropOldestOnFull.
	OnShed func(Message)

	OnFire func(Message)
	// OnReconnect is called after each lost session, with the total
	// reconnect count.
	OnReconnect func(reconnects int)
	// OnFrame observes server frames the client does not consume itself
	// (anything but ack/fire/ping/stats — e.g. error frames, or the
	// cluster protocol's dets/ckptres replies). It runs on the session's
	// read goroutine: it must not block on this client's own Send/Flush.
	OnFrame func(Message)
}

// Validate rejects nonsensical option values with an error naming the
// field, instead of silently "defaulting" them into something the caller
// did not ask for. Zero values still mean "use the default".
func (o *ReliableOptions) Validate() error {
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
		{"PeerTimeout", o.PeerTimeout},
	} {
		if d.v < 0 {
			return fmt.Errorf("wire: negative %s %v", d.name, d.v)
		}
	}
	if o.MaxBackoff > 0 && o.Backoff > 0 && o.MaxBackoff < o.Backoff {
		return fmt.Errorf("wire: MaxBackoff %v below initial Backoff %v", o.MaxBackoff, o.Backoff)
	}
	if o.Multiplier != 0 && o.Multiplier < 1 {
		return fmt.Errorf("wire: backoff Multiplier %v < 1 would shrink delays", o.Multiplier)
	}
	if o.Jitter < 0 || o.Jitter > 1 {
		return fmt.Errorf("wire: Jitter %v outside [0, 1]", o.Jitter)
	}
	if o.MaxAttempts < 0 {
		return fmt.Errorf("wire: negative MaxAttempts %d", o.MaxAttempts)
	}
	if o.PeerTimeout > 0 && o.Keepalive > 0 && o.PeerTimeout <= o.Keepalive {
		return fmt.Errorf("wire: PeerTimeout %v not above Keepalive %v would reap live links", o.PeerTimeout, o.Keepalive)
	}
	return nil
}

// DialReliable starts a reliable feed to addr. It returns immediately;
// the connection is established (and re-established) in the background,
// and Send buffers until the link is up.
func DialReliable(addr string, opt ReliableOptions) (*ReliableClient, error) {
	if err := opt.Validate(); err != nil {
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
	if opt.Multiplier == 0 {
		opt.Multiplier = 2
	}
	if opt.Jitter == 0 {
		opt.Jitter = 0.2
	}
	if opt.DrainTimeout == 0 {
		opt.DrainTimeout = 10 * time.Second
	}
	if opt.PeerTimeout == 0 && opt.Keepalive > 0 {
		opt.PeerTimeout = 3 * opt.Keepalive
	}
	c := &ReliableClient{
		opt:     opt,
		addr:    addr,
		next:    1,
		abortCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
		randf:   opt.Rand,
	}
	if c.randf == nil {
		seed := opt.Seed
		if seed == 0 {
			h := fnv.New64a()
			h.Write([]byte(opt.ClientID))
			seed = int64(h.Sum64())
		}
		c.randf = rand.New(rand.NewSource(seed)).Float64
	}
	c.cond = sync.NewCond(&c.mu)
	if sp := opt.Spool; sp != nil {
		pending := sp.Pending()
		if len(pending) > 0 && pending[0].ClientID != opt.ClientID {
			return nil, fmt.Errorf("wire: spool belongs to client %q, not %q", pending[0].ClientID, opt.ClientID)
		}
		c.ring = pending
		c.acked = sp.LastAck()
		c.next = sp.LastSeq() + 1
	}
	go c.run()
	return c, nil
}

// Send streams one observation through the reliable feed as a batch of
// one. It blocks only when the unacked ring is full, and fails once the
// client is closing or terminally failed.
func (c *ReliableClient) Send(reader, object string, at time.Duration) error {
	return c.SendBatch([]BatchObs{{Reader: reader, Object: object, AtNS: int64(at)}})
}

// SendBatch streams one read cycle of observations through the reliable
// feed: one sequenced batch frame — one seq, one ack, one engine
// hand-off — per MaxBatchFrame observations. The input slice is not
// retained.
func (c *ReliableClient) SendBatch(batch []BatchObs) error {
	for len(batch) > 0 {
		n := min(len(batch), MaxBatchFrame)
		if _, err := c.enqueue(Message{Type: "batch", Batch: append([]BatchObs(nil), batch[:n]...)}); err != nil {
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
// delivery guarantee as Send: advances change detection state (negation
// windows close on them), so they are sequenced and replayed too.
func (c *ReliableClient) Advance(at time.Duration) error {
	_, err := c.enqueue(Message{Type: "advance", AtNS: int64(at)})
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
	return c.enqueue(m)
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
	if len(c.ring) >= c.opt.Buffer && !c.shedOldestLocked() {
		return 0, ErrRingFull
	}
	return c.enqueueLocked(m)
}

// Unacked reports how many sequenced frames are waiting for a server
// ack — the ring depth, and the watermark overload control reads.
func (c *ReliableClient) Unacked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ring)
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
	for i := range c.ring {
		if c.ring[i].Type == "batch" {
			dropped := c.ring[i]
			c.ring = append(c.ring[:i], c.ring[i+1:]...)
			c.shed += uint64(len(dropped.Batch))
			if cb := c.opt.OnShed; cb != nil {
				cb(dropped)
			}
			return true
		}
	}
	return false
}

func (c *ReliableClient) enqueue(m Message) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.ring) >= c.opt.Buffer && c.failed == nil && !c.closing && !c.aborted {
		if c.shedOldestLocked() {
			break
		}
		c.cond.Wait()
	}
	return c.enqueueLocked(m)
}

func (c *ReliableClient) enqueueLocked(m Message) (uint64, error) {
	if c.failed != nil {
		return 0, c.failed
	}
	if c.closing || c.aborted {
		return 0, errors.New("wire: client is closed")
	}
	m.ClientID = c.opt.ClientID
	m.Seq = c.next
	if c.opt.Spool != nil {
		if err := c.opt.Spool.Append(m); err != nil {
			return 0, fmt.Errorf("wire: spool: %w", err)
		}
	}
	c.next++
	c.ring = append(c.ring, m)
	c.cond.Broadcast()
	return m.Seq, nil
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
	unacked := len(c.ring)
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
	d = time.Duration(float64(d) * c.opt.Multiplier)
	if d > c.opt.MaxBackoff {
		d = c.opt.MaxBackoff
	}
	return d
}

// jittered spreads d by ±Jitter so a fleet of edge clients does not
// reconnect in lockstep after a server restart.
func (c *ReliableClient) jittered(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 1 + c.opt.Jitter*(2*c.randf()-1)
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
		for {
			if c.opt.PeerTimeout > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(c.opt.PeerTimeout))
			}
			var m Message
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
	// wakes and cleared after each, so it pins no released frame.
	cursor := uint64(0)
	c.mu.Lock()
	cursor = c.acked
	c.mu.Unlock()
	byeSent := false
	finished := false
	var batch []Message
	for {
		batch = batch[:0]
		sendBye := false
		c.mu.Lock()
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
			if n := len(c.ring); n > 0 && c.ring[n-1].Seq > cursor {
				// Binary search, not seq arithmetic: shedding can leave
				// gaps in the ring's ascending seqs.
				lo := sort.Search(n, func(i int) bool { return c.ring[i].Seq > cursor })
				batch = append(batch, c.ring[lo:]...)
				break
			}
			if c.wantBye && !byeSent && c.acked == c.next-1 {
				sendBye = true
				break
			}
			c.cond.Wait()
		}
		c.mu.Unlock()
		for i := range batch {
			if err := w.Put(&batch[i]); err != nil {
				kill()
				goto out
			}
			cursor = batch[i].Seq
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
		if len(c.ring) > 0 {
			// The ring's seqs ascend but may have shed gaps; release
			// exactly the frames the cumulative ack covers.
			drop := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].Seq > seq })
			c.ring = c.ring[drop:]
			if len(c.ring) == 0 {
				c.ring = nil // release the backing array
			}
		}
		c.acked = seq
		if c.opt.Spool != nil {
			_ = c.opt.Spool.Ack(seq)
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}
