package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"rcep"
	"rcep/internal/core/event"
	"rcep/internal/llrp"
	"rcep/internal/pipeline"
	"rcep/internal/rules"
	"rcep/internal/wire"
)

// The whole path, composed here for the first time outside the packages'
// own tests:
//
//	LLRP frames → llrp.Reader.Next → llrp.Adapter.HandleMessage (BatchSink)
//	  → pipeline.RunBatches [Dedup] → wire.ReliableClient.SendBatch
//	  → loopback TCP → wire.Server → rcep.Engine → fire frames → OnFire
//
// One process, one connection, three benchmark-side goroutines (source,
// dedup stage, sink) plus the client's and the server's own.

const (
	// pacedRate is the open-loop arrival rate: the paper's Fig. 9 rate.
	pacedRate = 1000.0
	// lateLimit is the paced run's latency limit; a detection later than
	// this counts as failed. It is far above the ~1 ms the path takes so
	// that only a system that stopped keeping up trips it, not a host that
	// stalled the process for a tenth of a second.
	lateLimit = time.Second
	// Paced-run health: the generator should keep its own schedule and the
	// system should keep up, or the latencies describe the generator.
	maxLateP99    = 1000.0 // µs
	maxBacklogUp  = 16.0   // frames the backlog may grow over the last quarter
	negotiateWait = 5 * time.Second
	// spinTail is the end of each paced wait the generator spends
	// yield-spinning instead of sleeping.
	spinTail = 300 * time.Microsecond
)

// Lanes of the trace viewer.
const (
	laneMain = iota
	laneSource
	laneSink
)

// pathStats is what a path pass reports beyond the common numbers: the
// load generator's own health and the transport's counters.
type pathStats struct {
	lateP99     float64 // µs behind schedule when a paced frame was released
	backlogEnd  float64 // unacked + queued frames when the last frame was sent
	backlogGrow float64 // mean backlog of the last eighth of sends minus the eighth before
	unackedMax  float64
	queueMax    float64
	sendPerFr   float64 // µs per SendBatch call, ring wait included
	frames      int
	recvBytes   int64 // bytes the client read: acks and fire frames
	shed        uint64
	reconnects  int
	engine      rcep.Metrics // the server engine's counters
}

// pathRun is one path workload set up: stream, frames, reference and the
// lookup from a fire frame back to the observation that completed it.
type pathRun struct {
	in       *inputs
	fs       *frameSet
	ref      digest
	ingested int // observations the duplicate filter lets through
	ruleIdx  map[string]int
	obsIdx   map[obsKey]int32 // (object, time) → index in the stream
	paced    bool
	div      int // stream scale divisor (1 in a real run)
	passes   int
}

type obsKey struct {
	object string
	at     int64
}

// setupPath generates the stream (cut to cut observations when positive,
// which makes the run paced), its frames and its reference. div is the
// scale divisor the stream was generated with; tags bounds the mean tags
// per report the frames must have (see perFrame and perTag).
func setupPath(seed int64, spec streamSpec, cut, div int, tags [2]float64) (runner, error) {
	in, err := genStream(seed, spec)
	if err != nil {
		return nil, err
	}
	if cut > 0 {
		if cut > len(in.obs) {
			cut = len(in.obs)
		}
		in.obs = in.obs[:cut]
		in.horizon = in.obs[cut-1].At.Add(time.Minute)
	}
	w := &pathRun{in: in, paced: cut > 0, div: div, obsIdx: make(map[obsKey]int32, len(in.obs))}
	if w.fs, err = genFrames(seed, in.obs); err != nil {
		return nil, err
	}
	if got := w.fs.tagsPerReport(); got < tags[0] || got >= tags[1] {
		return nil, fmt.Errorf("stream has %.2f tags per report, this workload needs at least %g and under %g", got, tags[0], tags[1])
	}
	if w.ref, w.ingested, err = reference(in, dedupWindow); err != nil {
		return nil, err
	}
	if w.ruleIdx, err = ruleIndex(in.script); err != nil {
		return nil, err
	}
	for i, o := range in.obs {
		w.obsIdx[obsKey{o.Object, int64(o.At)}] = int32(i)
	}
	return w, nil
}

func (w *pathRun) want() digest { return w.ref }
func (w *pathRun) once() bool   { return w.paced }

// warmup runs the stream through once at full speed, paced run or not: a
// paced warm-up would double the run and warm nothing more.
func (w *pathRun) warmup() error {
	_, err := w.run(nil, false)
	return err
}

func (w *pathRun) pass(rec *recorder) (*passResult, error) { return w.run(rec, w.paced) }

// ruleIndex maps rule IDs to their position in the script, the rule
// number bare engines report and the digest folds.
func ruleIndex(script string) (map[string]int, error) {
	rs, err := rules.ParseScript(script)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, len(rs.Rules))
	for i, r := range rs.Rules {
		idx[r.ID] = i
	}
	return idx, nil
}

// pacedReader hands the frame bytes to llrp.Reader on the open-loop
// schedule: frame i is released when its last observation is due, and how
// late each release ran is recorded. (Saturating runs read the bytes
// through a plain bytes.Reader.)
type pacedReader struct {
	fs   *frameSet
	next int // frame being delivered
	off  int // bytes of data already delivered
	base time.Time
	late []float64
}

// due is when observation i of a paced run is due, relative to base.
func due(i int) time.Duration {
	return time.Duration(float64(i) / pacedRate * float64(time.Second))
}

func (r *pacedReader) Read(p []byte) (int, error) {
	if r.next == len(r.fs.ends) {
		return 0, io.EOF
	}
	start := 0
	if r.next > 0 {
		start = r.fs.ends[r.next-1]
	}
	if r.off == start { // first byte of the frame: wait for its due time
		at := due(r.fs.lastObs[r.next])
		// Sleep most of the wait, then yield-spin the rest: a timer
		// wake-up alone overshoots by more than the schedule allows.
		if wait := at - time.Since(r.base); wait > spinTail {
			time.Sleep(wait - spinTail)
		}
		for time.Since(r.base) < at {
			runtime.Gosched()
		}
		r.late = append(r.late, micros(time.Since(r.base)-at))
	}
	n := copy(p, r.fs.data[r.off:r.fs.ends[r.next]])
	r.off += n
	if r.off == r.fs.ends[r.next] {
		r.next++
	}
	return n, nil
}

// source decodes the frame stream through one llrp.Adapter per reader
// into emit. stamp, when set, is called with each decoded frame's index.
func (w *pathRun) source(r io.Reader, rec *recorder, stamp func(frame int)) pipeline.BatchSource {
	return func(ctx context.Context, emit func(event.Batch) error) error {
		intern := event.NewInterner()
		adapters := make([]*llrp.Adapter, len(w.fs.readers))
		for i, id := range w.fs.readers {
			adapters[i] = &llrp.Adapter{ReaderID: id, BatchSink: emit, Intern: intern}
		}
		rd := llrp.NewReader(r)
		for frame := 0; ; frame++ {
			s := rec.begin("llrp.Next+HandleMessage", -1, laneSource)
			m, err := rd.Next()
			if err == nil {
				if int(m.ID) >= len(adapters) {
					err = fmt.Errorf("frame %d names reader %d of %d", frame, m.ID, len(adapters))
				} else {
					if stamp != nil {
						stamp(frame)
					}
					err = adapters[m.ID].HandleMessage(m)
				}
			}
			rec.end(s)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
		}
	}
}

// neverScript is a rule set no observation of the generated streams can
// match: the server behind it pays for the wire and nothing else.
const neverScript = `
CREATE RULE never, matches nothing
ON observation('no_such_reader', o, t)
IF true
DO mark_duplicate(o, t)
`

// server starts a wire.Server on a loopback listener.
func startServer(cfg rcep.Config) (*wire.Server, net.Listener, error) {
	srv, err := wire.NewServer(cfg)
	if err != nil {
		return nil, nil, err
	}
	registerProcs(srv.Engine())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() { _ = srv.Serve(ln) }() // returns nil once ln closes
	return srv, ln, nil
}

// countingConn counts the bytes crossing the client's connection.
type countingConn struct {
	net.Conn
	sent, recv *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

// link is a reliable client connected to a server, with what the
// benchmark counts on it.
type link struct {
	srv        *wire.Server
	ln         net.Listener
	cli        *wire.ReliableClient
	sent, recv atomic.Int64
	errFrames  atomic.Int64
}

// connect starts a server for cfg and a reliable client on it, and waits
// until batch frames are negotiated so no pass falls back to per-tag
// frames.
func connect(cfg rcep.Config, id string, onFire func(wire.Message)) (*link, error) {
	l := &link{}
	var err error
	if l.srv, l.ln, err = startServer(cfg); err != nil {
		return nil, err
	}
	addr := l.ln.Addr().String()
	l.cli, err = wire.DialReliable(addr, wire.ReliableOptions{
		ClientID: id,
		OnFire:   onFire,
		OnFrame:  func(wire.Message) { l.errFrames.Add(1) },
		Dial: func() (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, sent: &l.sent, recv: &l.recv}, nil
		},
	})
	if err != nil {
		l.ln.Close()
		return nil, err
	}
	for deadline := time.Now().Add(negotiateWait); !l.cli.BatchNegotiated(); {
		if time.Now().After(deadline) {
			l.shutdown()
			return nil, errors.New("batch frames not negotiated")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return l, nil
}

// shutdown stops the client, the listener and the server's handlers.
func (l *link) shutdown() {
	l.cli.Abort()
	l.ln.Close()
	l.srv.Shutdown()
}

// sendSink is the pipeline's sink: one batch frame per surviving batch.
func sendSink(cli *wire.ReliableClient, rec *recorder, onSend func(took time.Duration)) func(event.Batch) error {
	var scratch []wire.BatchObs
	return func(b event.Batch) error {
		scratch = scratch[:0]
		for _, o := range b {
			scratch = append(scratch, wire.BatchObs{Reader: o.Reader, Object: o.Object, AtNS: int64(o.At)})
		}
		t := time.Now()
		s := rec.begin("wire.SendBatch", -1, laneSink)
		err := cli.SendBatch(scratch)
		rec.end(s)
		if onSend != nil {
			onSend(time.Since(t))
		}
		return err
	}
}

// run sends the stream down the whole path once, on the open-loop
// schedule when paced and as fast as the window allows otherwise.
func (w *pathRun) run(rec *recorder, paced bool) (*passResult, error) {
	w.passes++
	nobs := len(w.in.obs)
	res := &passResult{obs: nobs, lat: make([]float64, 0, w.ref.count)}
	res.m.baseline()

	// stamp[i] is when observation i entered the system, in ns since epoch:
	// its due time on a paced run, the moment its frame was decoded on a
	// saturating one. The source writes it, the client's reader reads it.
	stamp := make([]atomic.Int64, nobs)
	epoch := time.Now()
	var late uint64
	onFire := func(m wire.Message) {
		now := time.Since(epoch)
		res.det.fold(w.ruleIdx[m.Rule], m.BeginNS, m.EndNS)
		if strings.HasPrefix(m.Rule, "asset_") {
			return // fires when event time passes the window, not on arrival
		}
		o, _ := m.Bindings["o"].(string)
		i, ok := w.obsIdx[obsKey{o, m.EndNS}]
		if !ok {
			res.failed++
			return
		}
		d := now - time.Duration(stamp[i].Load())
		res.lat = append(res.lat, micros(d))
		if paced && d > lateLimit {
			late++
		}
	}
	l, err := connect(rcep.Config{Rules: w.in.script, Groups: w.in.groups, TypeOf: w.in.typeOf},
		fmt.Sprintf("bench-%d", w.passes), onFire)
	if err != nil {
		return nil, err
	}
	defer l.shutdown()

	var frames io.Reader = bytes.NewReader(w.fs.data)
	var sendTotal time.Duration
	var backlog []float64
	g := &res.path
	onSend := func(took time.Duration) {
		sendTotal += took
		unacked, queued := float64(l.cli.Unacked()), float64(l.srv.QueueDepth())
		backlog = append(backlog, unacked+queued)
		if unacked > g.unackedMax {
			g.unackedMax = unacked
		}
		if queued > g.queueMax {
			g.queueMax = queued
		}
	}
	stampFrame := func(frame int) {
		lo := 0
		if frame > 0 {
			lo = w.fs.lastObs[frame-1] + 1
		}
		now := int64(time.Since(epoch))
		for i := lo; i <= w.fs.lastObs[frame]; i++ {
			stamp[i].Store(now)
		}
	}

	res.m.start()
	var pr *pacedReader
	if paced {
		pr = &pacedReader{fs: w.fs, base: res.m.t0}
		frames = pr
		stampFrame = nil
		for i := range stamp {
			stamp[i].Store(int64(res.m.t0.Sub(epoch) + due(i)))
		}
	}
	root := rec.begin("pipeline.RunBatches", -1, laneMain)
	err = pipeline.RunBatches(context.Background(), pipeline.BatchedConfig{
		Source: w.source(frames, rec, stampFrame),
		Stages: []pipeline.StageFunc{pipeline.Dedup(dedupWindow)},
		Sink:   sendSink(l.cli, rec, onSend),
	})
	rec.end(root)
	if err != nil {
		return nil, err
	}
	if err := l.cli.Advance(time.Duration(w.in.horizon)); err != nil {
		return nil, err
	}
	s := rec.begin("wire.Close", -1, laneMain)
	stats, err := l.cli.Close() // drains the ring; every fire precedes the stats reply
	rec.end(s)
	if err != nil {
		return nil, err
	}
	res.m.stop()
	res.m.retain()
	runtime.KeepAlive(l.srv)

	g.shed = l.srv.Shed() + l.cli.Shed()
	g.reconnects = l.cli.Reconnects()
	g.recvBytes = l.recv.Load()
	g.engine = l.srv.Engine().Metrics()
	res.failed += late + g.shed + uint64(g.reconnects) + uint64(l.errFrames.Load()) +
		uint64(len(l.srv.Engine().Errs()))
	res.failed += absDiff(stats.Observations, uint64(w.ingested))
	res.attempted = uint64(nobs) + w.ref.count
	res.failed += res.det.diff(w.ref)

	g.frames = len(backlog)
	if pr != nil {
		g.lateP99 = percentile(pr.late, 0.99)
	}
	if n := len(backlog); n > 0 {
		g.backlogEnd = backlog[n-1]
		g.sendPerFr = micros(sendTotal) / float64(n)
		if n >= 16 {
			g.backlogGrow = mean(backlog[n-n/8:]) - mean(backlog[n-n/4:n-n/8])
		}
	}
	return res, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ---- prefix cuts ------------------------------------------------------------

// cutCost is what running a prefix of the path over the frames cost.
type cutCost struct {
	cpu    time.Duration
	allocs uint64
}

func (a cutCost) minus(b cutCost) cutCost {
	return cutCost{cpu: a.cpu - b.cpu, allocs: a.allocs - b.allocs}
}

// Prefix cuts: the path is cut after a layer and the rest replaced by a
// sink that only recycles the batch. Adjacent cuts differ by one layer, so
// the difference in process CPU time is that layer's cost with every
// goroutine's work counted, however the goroutines overlapped.
const (
	cutLLRP     = iota + 1 // Reader.Next + HandleMessage, recycle sink
	cutPipeline            // … → RunBatches [Dedup] → no-op sink
	cutWire                // … → SendBatch → server with a rule set that matches nothing
)

// cut runs one prefix of the path over the whole frame set, unpaced.
func (w *pathRun) cut(level int) (cutCost, *link, error) {
	var m meter
	fr := bytes.NewReader(w.fs.data)
	if level == cutLLRP {
		m.start()
		err := w.source(fr, nil, nil)(context.Background(), func(b event.Batch) error {
			event.PutBatch(b)
			return nil
		})
		m.stop()
		return cutCost{m.cpuUsed, m.allocs}, nil, err
	}
	cfg := pipeline.BatchedConfig{
		Source: w.source(fr, nil, nil),
		Stages: []pipeline.StageFunc{pipeline.Dedup(dedupWindow)},
		Sink:   func(event.Batch) error { return nil }, // RunBatches recycles the batch
	}
	var l *link
	if level == cutWire {
		var err error
		w.passes++
		if l, err = connect(rcep.Config{Rules: neverScript}, fmt.Sprintf("cut-%d", w.passes), nil); err != nil {
			return cutCost{}, nil, err
		}
		defer l.shutdown()
		cfg.Sink = sendSink(l.cli, nil, nil)
	}
	m.start()
	err := pipeline.RunBatches(context.Background(), cfg)
	if err == nil && l != nil {
		if err = l.cli.Advance(time.Duration(w.in.horizon)); err == nil {
			_, err = l.cli.Close()
		}
	}
	m.stop()
	return cutCost{m.cpuUsed, m.allocs}, l, err
}
