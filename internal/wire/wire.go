// Package wire exposes an rcep engine over TCP, so RFID edge readers (or
// the simulator) can stream observations to a central event processor and
// receive rule firings — the deployment shape of the middleware platforms
// the paper's related work surveys.
//
// Observations travel in batch frames: one read cycle (DESIGN.md §12)
// under one sequence number, so one frame, one dedupe decision and one
// engine hand-off per reader report. A lone observation is a batch of one.
// Batch, fire and ack frames are binary (codec.go); every other frame is
// one JSON object. The JSON forms of the three binary frames are their
// debug rendering, accepted by every reader:
//
//	{"type":"batch","batch":[{"reader":"r1","object":"o1","at_ns":N},...]}
//	{"type":"fire","rule":"r5","name":"asset monitoring rule",
//	 "begin_ns":..., "end_ns":..., "bindings":{"o4":"L1"}}
//	{"type":"ack","seq":N}                  // cumulative, per client_id
//
// Both ends must run this version: an older peer drops the connection on a
// binary frame without claiming its seq, so nothing is lost.
//
// Client → server messages, besides batch:
//
//	{"type":"advance","at_ns":5000000000}   // idle-time progress
//	{"type":"query","sql":"SELECT ..."}
//	{"type":"hello","client_id":"edge1"}    // reliable feed resume probe
//	{"type":"pong"}                         // keepalive reply
//	{"type":"bye"}                          // graceful end of this feed
//
// Server → client messages, besides binary fire and ack frames:
//
//	{"type":"result","columns":[...],"rows":[[...]]}
//	{"type":"ping"}                         // keepalive probe
//	{"type":"error","msg":"..."}
//	{"type":"stats","observations":N,"detections":M,"shards":K}   // reply to bye
//
// Reliable delivery: batch/advance frames may carry client_id and a
// monotonically increasing seq (starting at 1). The server applies each
// (client_id, seq) at most once — a reconnecting client replays unacked
// frames and duplicates are dropped, turning at-least-once delivery into
// engine-side exactly-once. Acks are cumulative: ack N covers every seq
// ≤ N. They are not sent once per frame: the server sends each client ID
// it owes an ack at least once every time its input drains (it has no
// further byte of a frame in hand), so frames that arrive together draw
// one ack. A hello frame is answered with the highest seq applied for that
// client, so a resuming client can skip frames the server already has.
// A sequenced frame of a type the server does not know is refused: an
// error reply, then the connection closes without claiming the seq, so
// the next frame's cumulative ack cannot release it unapplied.
//
// Duplicate reads are filtered at the edge (rfidfeed -dedup, a
// pipeline.Dedup stage), not here. That relies on each reader being fed by
// one edge: the duplicate key includes the reader, so an edge that sees
// all of a reader's observations drops exactly what a server-side filter
// would.
//
// Every endpoint writes through a FrameWriter and reads through a
// FrameReader, one pair per connection, which owns the connection's
// symbol tables. Frames are encoded into a per-connection buffer and
// flushed when the writer has nothing more to write — the server when its
// input drains, a reliable client after the frames it took from its ring,
// the query client after every message. No timer holds a frame back, and
// buffering leaves a frame's bytes as they are, so peers that write one
// frame per call interoperate.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rcep"
	"rcep/internal/core/event"
	"rcep/internal/stream"
)

// Message is one protocol frame, client- or server-originated.
type Message struct {
	Type string `json:"type"`

	// advance. Timestamps carry no omitempty: t=0 is a legitimate time
	// and must survive the wire.
	AtNS int64 `json:"at_ns"`

	// batch: one read cycle of observations under one seq. Bounded by
	// MaxBatchFrame; an oversized frame is rejected before its seq is
	// claimed, so the sender can re-chunk and resend without a gap.
	Batch []BatchObs `json:"batch,omitempty"`

	// reliable delivery (batch/advance/hello/ack)
	ClientID string `json:"client_id,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`

	// query
	SQL string `json:"sql,omitempty"`

	// fire. A server's fire carries the firing's Binds, valid while it is
	// put; a reader decodes a fire into Bindings, valid until its next
	// Read (during OnFire): maps.Clone keeps it.
	Rule     string         `json:"rule,omitempty"`
	Name     string         `json:"name,omitempty"`
	BeginNS  int64          `json:"begin_ns"`
	EndNS    int64          `json:"end_ns"`
	Bindings map[string]any `json:"bindings,omitempty"`
	Binds    event.Bindings `json:"-"`

	// result
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`

	// error / stats
	Msg          string `json:"msg,omitempty"`
	Observations uint64 `json:"observations,omitempty"`
	Detections   uint64 `json:"detections,omitempty"`
	Shards       int    `json:"shards,omitempty"` // detection shards serving the engine

	// status (reply to a "status" frame): overload visibility. Shed is
	// how many observations the admission queue has dropped under its
	// drop-oldest policy; Queue is the current admission-queue depth.
	Shed  uint64 `json:"shed,omitempty"`
	Queue int    `json:"queue,omitempty"`

	// cluster mode (internal/core/cluster). Coordinator → worker frames
	// reuse the sequenced batch/advance machinery and add: "assign" (host
	// shard Shard, restoring Ck and resuming the detection counter at
	// DetSeq), "sync" (catch up to AtNS and return buffered detections),
	// "ckpt" (return a checkpoint), "drain" (close the shard engine).
	// Worker → coordinator: "dets" (CDets at a barrier), "ckptres"
	// (Ck + DetSeq), "boot" (Msg carries the worker's boot ID, so a
	// reconnecting coordinator can tell a restarted worker from a
	// transient network failure).
	Shard  int             `json:"shard,omitempty"`
	DetSeq uint64          `json:"det_seq,omitempty"`
	Ck     json.RawMessage `json:"ck,omitempty"`
	Sum    uint32          `json:"sum,omitempty"` // CRC-32 (IEEE) of Ck, end to end
	CDets  []ClusterDet    `json:"cdets,omitempty"`
}

// BatchObs is one observation inside a batch frame.
type BatchObs struct {
	Reader string `json:"reader"`
	Object string `json:"object"`
	AtNS   int64  `json:"at_ns"`
}

// MaxBatchFrame bounds the observations one batch frame may carry; a
// malicious or buggy sender cannot force an unbounded allocation or an
// arbitrarily long engine stall under the ingest lock.
const MaxBatchFrame = 65536

// ClusterDet is one detection shipped from a cluster worker to the
// coordinator at a delivery barrier. Dseq is the worker-side per-shard
// detection counter: it survives checkpoint handoff, so the coordinator
// can both dedupe re-delivered detections after a replay and preserve the
// same-rule tie order in the merged (fire, rule, seq) delivery.
type ClusterDet struct {
	Rule    int            `json:"rule"`
	Dseq    uint64         `json:"dseq"`
	FireNS  int64          `json:"fire_ns"`
	BeginNS int64          `json:"begin_ns"`
	EndNS   int64          `json:"end_ns"`
	InstSeq uint64         `json:"inst_seq,omitempty"`
	Binds   event.Bindings `json:"binds,omitempty"`
}

// Server serves one shared engine to any number of connections.
// Observations from all connections are serialized into the engine;
// firings are broadcast to every connected client.
type Server struct {
	// emu serializes engine access; cmu guards the client registry.
	// They are distinct because rule firings broadcast while the engine
	// lock is held.
	emu sync.Mutex
	cmu sync.Mutex
	eng *rcep.Engine
	// reorder is the configured reorder buffer (nil without WithReorder);
	// it appends what it releases to pend for one handOff. Both are
	// guarded by emu.
	reorder *stream.Reorder
	pend    event.Batch
	clients map[*clientConn]bool
	// fanout is the frame's broadcast list, snapshotted at its first fire
	// and flushed before applyFrame returns; guarded by emu.
	fanout  []*clientConn
	fire    Message // the fire frame broadcast puts; guarded by emu
	closing bool
	wg      sync.WaitGroup // live connection handlers
	opts    serverOpts

	// seqMu guards lastSeq: highest sequence number applied per client
	// ID. The map outlives individual connections so a reconnecting
	// client's replayed frames dedupe correctly.
	seqMu   sync.Mutex
	lastSeq map[string]uint64

	// admit, when configured (WithAdmission), decouples frame arrival
	// from engine application behind a bounded queue.
	admit    *admission
	pumpDone chan struct{}
}

// admission is the bounded queue between connection handlers and the
// engine. Full + dropOldest → the oldest queued observation is shed (and
// counted); full without dropOldest → the handler blocks, pushing
// backpressure into the client's unacked ring.
type admission struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []admitted
	cap    int
	drop   bool
	shed   uint64
	closed bool
}

type admitted struct {
	m  Message
	cc *clientConn
}

// FrameWriter is the one write path of every wire endpoint: frames are
// encoded into a per-connection buffer under a lock and reach the
// connection when the owner flushes. Batch, ack and Binds fire frames are
// encoded in binary, everything else as JSON. Once a write fails the
// buffer keeps the error, so every later Put or Flush reports it.
type FrameWriter struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	codec encoder
}

// NewFrameWriter writes frames to w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	bw := bufio.NewWriter(w)
	return &FrameWriter{bw: bw, enc: json.NewEncoder(bw), codec: encoder{ids: map[string]uint32{}}}
}

// Put encodes one frame into the buffer.
func (w *FrameWriter) Put(m *Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// A fire with a Bindings map is the JSON debug rendering; one the codec
	// cannot carry goes as the same rendering of its Binds.
	if m.Type == "batch" || m.Type == "ack" || m.Type == "fire" && m.Bindings == nil {
		if b, ok := w.codec.encode(m); ok {
			_, err := w.bw.Write(b)
			return err
		}
		if m.Type == "fire" {
			r := *m
			r.Bindings = rcep.Detection{Binds: m.Binds}.Bindings()
			m = &r
		}
	}
	return w.enc.Encode(m)
}

// Flush writes everything buffered to the connection.
func (w *FrameWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Flush()
}

// Send puts one frame and flushes it.
func (w *FrameWriter) Send(m *Message) error {
	if err := w.Put(m); err != nil {
		return err
	}
	return w.Flush()
}

// clientConn is one registered connection: its frame writer, shared by
// handler replies, broadcasts and pings; the reliable client IDs seen on
// it (so a draining shutdown can flush their cumulative acks); and the
// acks its handler owes until the next settle. A dead connection's write
// errors are ignored: its handler detaches it.
type clientConn struct {
	*FrameWriter
	conn net.Conn
	ids  map[string]bool
	owed map[string]uint64 // client ID → cumulative ack; handler goroutine only
	ack  Message           // the frame settle puts each owed ack in
}

// settle writes the owed acks, then flushes: the handler's one write per
// drained read.
func (cc *clientConn) settle() {
	for _, seq := range cc.owed {
		cc.ack.Type, cc.ack.Seq = "ack", seq
		_ = cc.Put(&cc.ack)
	}
	clear(cc.owed)
	_ = cc.Flush()
}

// Option tunes a Server.
type Option func(*serverOpts)

type serverOpts struct {
	reorderSlack time.Duration
	keepalive    time.Duration
	admitCap     int
	admitDrop    bool
}

// WithReorder installs a bounded reorder buffer in front of the engine,
// tolerating timestamp skew of up to slack across connections (multiple
// edge readers never agree perfectly on delivery order).
func WithReorder(slack time.Duration) Option {
	return func(o *serverOpts) { o.reorderSlack = slack }
}

// WithKeepalive makes the server send a ping frame on every connection
// each interval and reap dead peers: a client that neither sends frames
// nor answers pings for deadIntervals intervals is disconnected instead
// of holding a goroutine forever.
func WithKeepalive(interval time.Duration) Option {
	return func(o *serverOpts) { o.keepalive = interval }
}

// deadIntervals is how many keepalive intervals of silence declare a peer
// dead, to the server and to a ReliableClient alike.
const deadIntervals = 3

// WithAdmission puts a bounded queue of the given capacity between
// connection handlers and the engine, making overload behavior explicit
// end to end. When the queue is full, dropOldest=false blocks the
// handler (backpressure into the sender's unacked ring — nothing is
// lost, latency grows); dropOldest=true sheds the oldest queued
// observation instead, counting it in the shed counter surfaced by the
// "status" frame, so a saturated server keeps bounded latency at the
// cost of the stalest coverage. Advance frames are never shed — they
// carry clock state, and dropping one could silently change detection
// results.
//
// In admission mode an ack means "admitted": the frame is applied in
// order (or knowingly shed) before Shutdown returns, and ingest errors
// are reported asynchronously as error frames. Queries still run
// synchronously and may observe the engine a few queued frames behind
// the acks.
func WithAdmission(capacity int, dropOldest bool) Option {
	return func(o *serverOpts) {
		o.admitCap = capacity
		o.admitDrop = dropOldest
	}
}

// NewServer builds a server around a fresh engine. The config's
// OnDetection, if set, still runs in addition to the broadcast.
func NewServer(cfg rcep.Config, opts ...Option) (*Server, error) {
	s := &Server{
		clients: map[*clientConn]bool{},
		lastSeq: map[string]uint64{},
	}
	var so serverOpts
	for _, o := range opts {
		o(&so)
	}
	s.opts = so
	user := cfg.OnDetection
	cfg.OnDetection = func(d rcep.Detection) {
		if user != nil {
			user(d)
		}
		s.fire = Message{
			Type: "fire", Rule: d.RuleID, Name: d.RuleName,
			BeginNS: int64(d.Begin), EndNS: int64(d.End), Binds: d.Binds,
		}
		s.broadcast()
	}
	eng, err := rcep.New(cfg)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	if so.reorderSlack > 0 {
		s.reorder = stream.NewReorder(so.reorderSlack, func(o event.Observation) error {
			s.pend = append(s.pend, o)
			return nil
		})
	}
	if so.admitCap > 0 {
		s.admit = &admission{cap: so.admitCap, drop: so.admitDrop}
		s.admit.cond = sync.NewCond(&s.admit.mu)
		s.pumpDone = make(chan struct{})
		go s.pump()
	}
	return s, nil
}

// ingestBatch is the one way observations reach the engine: a batch
// frame's contents, canonical already (the connection's FrameReader
// interns each name when it is defined, so the reorder buffer and all
// engine state share one instance per distinct value), through the
// reorder buffer when one is configured. The caller holds emu.
func (s *Server) ingestBatch(b event.Batch) error {
	if s.reorder != nil {
		s.pend = s.pend[:0]
		for _, o := range b {
			if err := s.reorder.Push(o); err != nil {
				return err
			}
		}
		b = s.pend
	}
	return s.handOff(b)
}

// handOff gives the engine one frame's surviving observations. A sharded
// engine delivers detections at barriers; the protocol promises prompt
// firing broadcasts, so delivery is forced per frame (a no-op on a single
// engine).
func (s *Server) handOff(b event.Batch) error {
	if len(b) == 0 {
		return nil
	}
	if err := s.eng.IngestEvents(b); err != nil {
		return err
	}
	return s.eng.Flush()
}

// FrameBatch copies a batch frame's observations into a pooled batch.
func FrameBatch(m Message) event.Batch {
	b := event.GetBatch()
	for _, o := range m.Batch {
		b = append(b, event.Observation{Reader: o.Reader, Object: o.Object, At: event.Time(o.AtNS)})
	}
	return b
}

// Engine returns the underlying engine, e.g. to register procedures
// before serving.
func (s *Server) Engine() *rcep.Engine { return s.eng }

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handle(conn)
	}
}

// broadcast puts s.fire into every connection's buffer. The engine
// detects only inside calls the server makes under emu, so one
// server-owned frame serves every firing, and the frame's applyFrame
// flushes what it wrote.
func (s *Server) broadcast() {
	if len(s.fanout) == 0 {
		s.cmu.Lock()
		for c := range s.clients {
			s.fanout = append(s.fanout, c)
		}
		s.cmu.Unlock()
	}
	for _, c := range s.fanout {
		_ = c.Put(&s.fire)
	}
}

// Shutdown drains the server for a clean restart: every connection
// handler finishes the frame it is processing, flushes a final cumulative
// ack for each reliable client it served, and only then is the connection
// closed. Without the final ack flush a client whose last ack was lost in
// the close race would replay frames the engine already applied — harmless
// for correctness (the seq dedupe would drop them on a live server) but a
// forced replay after every clean restart, and an actual re-application
// unless the seq state is restored too (see SeqState). Call after closing
// the listener; Shutdown returns once every handler has exited.
func (s *Server) Shutdown() {
	s.cmu.Lock()
	s.closing = true
	conns := make([]*clientConn, 0, len(s.clients))
	for c := range s.clients {
		conns = append(conns, c)
	}
	s.cmu.Unlock()
	// An immediate read deadline makes each handler's pending Read
	// return after the in-flight frame; the handler sees closing=true and
	// flushes final acks on its way out.
	for _, c := range conns {
		_ = c.conn.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	// With every handler gone no new frames can be admitted; drain the
	// queue so everything acked-as-admitted is applied before the caller
	// snapshots the engine.
	if s.admit != nil {
		s.admit.mu.Lock()
		s.admit.closed = true
		s.admit.mu.Unlock()
		s.admit.cond.Broadcast()
		<-s.pumpDone
	}
}

// Shed reports how many observations the admission queue has dropped
// under its drop-oldest policy (0 without WithAdmission).
func (s *Server) Shed() uint64 {
	if s.admit == nil {
		return 0
	}
	s.admit.mu.Lock()
	defer s.admit.mu.Unlock()
	return s.admit.shed
}

// QueueDepth reports the current admission-queue depth (0 without
// WithAdmission).
func (s *Server) QueueDepth() int {
	if s.admit == nil {
		return 0
	}
	s.admit.mu.Lock()
	defer s.admit.mu.Unlock()
	return len(s.admit.q)
}

// SeqState snapshots the per-client cumulative ack state (highest applied
// sequence number per client ID). Persist it alongside the engine
// checkpoint and hand it to RestoreSeqState on restart, so reconnecting
// reliable clients skip frames the previous process already applied
// instead of replaying them into the restored engine.
func (s *Server) SeqState() map[string]uint64 {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	out := make(map[string]uint64, len(s.lastSeq))
	for id, seq := range s.lastSeq {
		out[id] = seq
	}
	return out
}

// RestoreSeqState seeds the per-client dedupe state from a previous
// process's SeqState snapshot. Call before Serve.
func (s *Server) RestoreSeqState(state map[string]uint64) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	for id, seq := range state {
		if seq > s.lastSeq[id] {
			s.lastSeq[id] = seq
		}
	}
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	cc := &clientConn{FrameWriter: NewFrameWriter(conn), conn: conn, ids: map[string]bool{}, owed: map[string]uint64{}}
	s.cmu.Lock()
	if s.closing {
		s.cmu.Unlock()
		return
	}
	s.wg.Add(1)
	s.clients[cc] = true
	s.cmu.Unlock()
	defer func() {
		cc.settle()
		s.cmu.Lock()
		delete(s.clients, cc)
		closing := s.closing
		s.cmu.Unlock()
		if closing {
			// Draining shutdown: flush a final cumulative ack per served
			// client so the peer can release its unacked ring/spool.
			for id := range cc.ids {
				_ = cc.Put(&Message{Type: "ack", ClientID: id, Seq: s.ackedSeq(id)})
			}
			_ = cc.Flush()
		}
		s.wg.Done()
	}()

	// Replies go into the buffer; the settle before the next blocking
	// read sends them with the owed acks.
	reply := func(m Message) { _ = cc.Put(&m) }

	// Keepalive: ping on an interval; a peer that stays silent for
	// deadIntervals intervals is reaped (Read fails on the expired deadline).
	timeout := deadIntervals * s.opts.keepalive
	if s.opts.keepalive > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(s.opts.keepalive)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					_ = cc.Send(&Message{Type: "ping"})
				case <-stop:
					return
				}
			}
		}()
	}

	fr := NewFrameReader(conn)
	fr.canon = s.eng.Interner()
	var m Message
	for {
		if fr.drained() {
			cc.settle()
		}
		if timeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(timeout))
		}
		if s.admit != nil {
			m = Message{} // a queued frame keeps its batch
		}
		if err := fr.Read(&m); err != nil {
			// An oversized batch is rejected before its seq is claimed:
			// the sender can re-chunk and resend under the same seq
			// without leaving a dedupe gap. Anything else — disconnect,
			// deadline expiry, garbage — drops the connection.
			var big *BatchTooLargeError
			if !errors.As(err, &big) {
				return
			}
			reply(Message{Type: "error", Msg: big.Error()})
			continue
		}
		switch m.Type {
		case "advance", "batch":
			if m.ClientID != "" && m.Seq > 0 {
				cc.ids[m.ClientID] = true
			}
			if s.admit != nil {
				s.admitFrame(cc, m)
				continue
			}
			s.applyFrame(cc, m, false)
		case "hello":
			// Resume probe: tell the client how far this feed already got.
			if m.ClientID != "" {
				cc.ids[m.ClientID] = true
			}
			reply(Message{Type: "ack", Seq: s.ackedSeq(m.ClientID)})
		case "ping":
			// Client-side keepalive probe (ReliableOptions.Keepalive).
			reply(Message{Type: "pong"})
		case "pong":
			// Keepalive reply; receiving it already refreshed the deadline.
		case "query":
			s.emu.Lock()
			cols, rows, err := s.eng.Query(m.SQL)
			s.emu.Unlock()
			if err != nil {
				reply(Message{Type: "error", Msg: err.Error()})
				continue
			}
			reply(Message{Type: "result", Columns: cols, Rows: jsonRows(rows)})
		case "status":
			// Overload visibility: engine progress plus the admission
			// queue's shed counter and depth.
			s.emu.Lock()
			met := s.eng.Metrics()
			s.emu.Unlock()
			reply(Message{
				Type: "status", Observations: met.Observations, Detections: met.Detections,
				Shards: s.eng.Shards(), Shed: s.Shed(), Queue: s.QueueDepth(),
			})
		case "bye":
			s.emu.Lock()
			met := s.eng.Metrics()
			s.emu.Unlock()
			reply(Message{Type: "stats", Observations: met.Observations, Detections: met.Detections, Shards: s.eng.Shards()})
			return
		default:
			reply(Message{Type: "error", Msg: fmt.Sprintf("unknown message type %q", m.Type)})
			if m.ClientID != "" && m.Seq > 0 {
				// A sequenced frame this server cannot apply must not be
				// acked by its successor's cumulative ack: close without
				// claiming, so the sender keeps it unacked.
				return
			}
		}
	}
}

// applyFrame claims one batch/advance frame (unless the admission
// queue already did), runs it into the engine and answers it — the
// synchronous tail of the handler, also run by the admission pump. On the
// handler's path the error reply waits in cc's buffer and the ack is owed
// until the handler settles; the pump sends both at once. Every other
// connection a fire was put to is flushed before return, so an idle
// listener never waits on another client's input.
func (s *Server) applyFrame(cc *clientConn, m Message, claimed bool) {
	var err error
	s.emu.Lock()
	switch {
	case !claimed && !s.claim(m):
		// Stale replay: dropped, but still acked below so the sender can
		// release its buffer.
	case m.Type == "batch":
		// One pooled batch per frame; the engine path consumes it
		// synchronously, so it recycles immediately.
		b := FrameBatch(m)
		err = s.ingestBatch(b)
		event.PutBatch(b)
	default:
		if s.reorder != nil {
			// An advance releases everything the reorder buffer holds.
			s.pend = s.pend[:0]
			if err = s.reorder.Flush(); err == nil {
				err = s.handOff(s.pend)
			}
		}
		if err == nil {
			err = s.eng.AdvanceTo(time.Duration(m.AtNS))
		}
		if err == nil {
			err = s.eng.Flush()
		}
	}
	for _, c := range s.fanout {
		if c != cc || claimed {
			_ = c.Flush()
		}
	}
	clear(s.fanout)
	s.fanout = s.fanout[:0]
	s.emu.Unlock()
	if err != nil {
		e := &Message{Type: "error", Msg: err.Error()}
		if claimed {
			_ = cc.Send(e)
		} else {
			_ = cc.Put(e)
		}
	}
	if m.ClientID != "" && m.Seq > 0 {
		if seq := s.ackedSeq(m.ClientID); claimed {
			_ = cc.Send(&Message{Type: "ack", Seq: seq})
		} else {
			cc.owed[m.ClientID] = seq
		}
	}
}

// admitFrame claims one frame and enqueues it on the admission queue,
// applying the configured overload policy when it is full.
func (s *Server) admitFrame(cc *clientConn, m Message) {
	a := s.admit
	var dropped []admitted
	a.mu.Lock()
	// A replay already known stale must not shed or wait to make room.
	stale := m.ClientID != "" && m.Seq > 0 && m.Seq <= s.ackedSeq(m.ClientID)
	for !stale && len(a.q) >= a.cap && !a.closed {
		if a.drop {
			if i := oldestSheddable(a.q); i >= 0 {
				dropped = append(dropped, a.q[i])
				a.shed += uint64(len(a.q[i].m.Batch))
				a.q = append(a.q[:i], a.q[i+1:]...)
				continue
			}
		}
		// Backpressure (or a queue full of unsheddable advance frames):
		// block the handler; the sender's unacked ring absorbs the stall.
		a.cond.Wait()
	}
	if !stale && !a.closed {
		if stale = !s.claim(m); !stale {
			a.q = append(a.q, admitted{m: m, cc: cc})
		}
	}
	a.mu.Unlock()
	a.cond.Broadcast()
	if stale {
		_ = cc.Send(&Message{Type: "ack", Seq: s.ackedSeq(m.ClientID)})
	}
	// A shed frame was claimed at admission, so its sender still gets the
	// cumulative ack and releases it — it is handled, just not applied.
	for _, d := range dropped {
		if d.m.ClientID != "" && d.m.Seq > 0 {
			_ = d.cc.Send(&Message{Type: "ack", Seq: s.ackedSeq(d.m.ClientID)})
		}
	}
}

// oldestSheddable finds the oldest coverage-only frame: batch frames may
// be shed, advance frames never (they carry clock state).
func oldestSheddable(q []admitted) int {
	for i := range q {
		if q[i].m.Type == "batch" {
			return i
		}
	}
	return -1
}

// pump drains the admission queue into the engine in arrival order,
// exiting only when the queue is closed and empty (Shutdown).
func (s *Server) pump() {
	defer close(s.pumpDone)
	a := s.admit
	for {
		a.mu.Lock()
		for len(a.q) == 0 && !a.closed {
			a.cond.Wait()
		}
		if len(a.q) == 0 {
			a.mu.Unlock()
			return
		}
		e := a.q[0]
		a.q = a.q[1:]
		a.mu.Unlock()
		a.cond.Broadcast()
		s.applyFrame(e.cc, e.m, true)
	}
}

// claim records a sequenced frame as handled and reports whether it is
// fresh: sequenced frames apply at most once per (client_id, seq);
// unsequenced ones always do. It runs under the lock that orders the
// hand-off — emu, or the admission queue's — so a frame claimed on a dying
// connection cannot be overtaken by its successor replayed on a new one.
func (s *Server) claim(m Message) bool {
	if m.ClientID == "" || m.Seq == 0 {
		return true
	}
	fresh, _ := s.claimSeq(m.ClientID, m.Seq)
	return fresh
}

// claimSeq records seq as applied for the client and reports whether the
// frame is fresh. Frames arrive in sequence order per client (a client
// writes one connection at a time, in order), so a cumulative high-water
// mark is a complete dedupe record.
func (s *Server) claimSeq(clientID string, seq uint64) (fresh bool, last uint64) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	last = s.lastSeq[clientID]
	if seq <= last {
		return false, last
	}
	s.lastSeq[clientID] = seq
	return true, seq
}

// ackedSeq returns the cumulative ack value for a client.
func (s *Server) ackedSeq(clientID string) uint64 {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.lastSeq[clientID]
}

// jsonRows makes the rows Engine.Query returned, which are the server's,
// JSON-safe in place: durations become nanosecond integers.
func jsonRows(rows [][]any) [][]any {
	for _, r := range rows {
		for j, v := range r {
			if d, ok := v.(time.Duration); ok {
				r[j] = int64(d)
			}
		}
	}
	return rows
}

// Client is a typed connection to a Server for queries and firing
// watches (rcepq); observations travel through a ReliableClient. It keeps
// no log of rule firings: OnFire is their delivery.
type Client struct {
	conn net.Conn
	w    *FrameWriter // flushed per message: queries, bye and keepalive pongs
	r    *FrameReader

	result chan Message
	stats  chan Message
	// OnFire, when set, receives rule firings as they arrive. Set it
	// before the first frame that can fire. A firing's Bindings is valid
	// during the callback only: maps.Clone keeps it.
	OnFire func(Message)
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:   conn,
		w:      NewFrameWriter(conn),
		r:      NewFrameReader(conn),
		result: make(chan Message, 1),
		stats:  make(chan Message, 1),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	for {
		var m Message
		if err := c.r.Read(&m); err != nil {
			close(c.result)
			close(c.stats)
			return
		}
		switch m.Type {
		case "fire":
			if c.OnFire != nil {
				c.OnFire(m)
			}
		case "ping":
			_ = c.w.Send(&Message{Type: "pong"})
		case "result", "error":
			select {
			case c.result <- m:
			default:
			}
		case "stats":
			select {
			case c.stats <- m:
			default:
			}
		}
	}
}

// Query runs SQL on the server's data store.
func (c *Client) Query(sql string) ([]string, [][]any, error) {
	if err := c.w.Send(&Message{Type: "query", SQL: sql}); err != nil {
		return nil, nil, err
	}
	m, ok := <-c.result
	if !ok {
		return nil, nil, errors.New("wire: connection closed")
	}
	if m.Type == "error" {
		return nil, nil, errors.New(m.Msg)
	}
	return m.Columns, m.Rows, nil
}

// Close ends the feed gracefully and returns the server's stats.
func (c *Client) Close() (Message, error) {
	if err := c.w.Send(&Message{Type: "bye"}); err != nil {
		c.conn.Close()
		return Message{}, err
	}
	m, ok := <-c.stats
	c.conn.Close()
	if !ok {
		return Message{}, errors.New("wire: connection closed before stats")
	}
	return m, nil
}
