package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/shard"
	"rcep/internal/faults"
)

// workerProc simulates one worker process: a Worker behind a real TCP
// listener, with enough scaffolding to crash it (kill), bring it back on
// the same address with a fresh boot ID (restart), sever its live
// connections while keeping its state (partition), and slow its writes.
type workerProc struct {
	t    *testing.T
	base WorkerConfig

	mu    sync.Mutex
	addr  string
	ln    net.Listener
	w     *Worker
	boot  int
	alive bool
	slow  bool
	held  bool
	conns map[net.Conn]bool
}

func newWorkerProc(t *testing.T, base WorkerConfig) *workerProc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	p := &workerProc{t: t, base: base, addr: ln.Addr().String(), conns: map[net.Conn]bool{}}
	p.start(ln)
	return p
}

func (p *workerProc) start(ln net.Listener) {
	p.mu.Lock()
	p.boot++
	cfg := p.base
	cfg.BootID = fmt.Sprintf("boot-%d-%s", p.boot, p.addr)
	w, err := NewWorker(cfg)
	if err != nil {
		p.mu.Unlock()
		p.t.Fatalf("NewWorker: %v", err)
	}
	p.ln, p.w, p.alive = ln, w, true
	p.mu.Unlock()
	go w.Serve(&trackingListener{Listener: ln, p: p})
}

// kill crashes the worker process: listener gone, connections severed,
// engine state lost (the next incarnation is a brand-new Worker).
func (p *workerProc) kill() {
	p.mu.Lock()
	if !p.alive {
		p.mu.Unlock()
		return
	}
	p.alive = false
	ln, w := p.ln, p.w
	p.mu.Unlock()
	ln.Close()
	w.Stop()
}

// restart rebinds the same address with a fresh boot ID.
func (p *workerProc) restart() {
	p.mu.Lock()
	if p.alive {
		p.mu.Unlock()
		return
	}
	addr := p.addr
	p.mu.Unlock()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		p.t.Fatalf("restart rebind %s: %v", addr, err)
	}
	p.start(ln)
}

// partition severs every live connection. The worker (and its feed
// state) survives, so reconnects resume transparently via wire replay.
func (p *workerProc) partition() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// holdPartition severs every live connection AND rejects reconnects
// until heal — a held partition, not a blip. The worker process and its
// feed state survive throughout.
func (p *workerProc) holdPartition() {
	p.mu.Lock()
	p.held = true
	p.mu.Unlock()
	p.partition()
}

// heal ends a held partition: subsequent dials are accepted again.
func (p *workerProc) heal() {
	p.mu.Lock()
	p.held = false
	p.mu.Unlock()
}

func (p *workerProc) isHeld() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.held
}

// setSlow makes every subsequent write lag.
func (p *workerProc) setSlow() {
	p.mu.Lock()
	p.slow = true
	p.mu.Unlock()
}

// setFast undoes setSlow.
func (p *workerProc) setFast() {
	p.mu.Lock()
	p.slow = false
	p.mu.Unlock()
}

func (p *workerProc) isSlow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.slow
}

type trackingListener struct {
	net.Listener
	p *workerProc
}

func (l *trackingListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.p.isHeld() {
			// Held partition: the dial succeeds at the TCP layer but the
			// connection dies immediately, like a firewall RST.
			c.Close()
			continue
		}
		tc := &trackConn{Conn: c, p: l.p}
		l.p.mu.Lock()
		l.p.conns[tc] = true
		l.p.mu.Unlock()
		return tc, nil
	}
}

type trackConn struct {
	net.Conn
	p *workerProc
}

func (c *trackConn) Write(b []byte) (int, error) {
	if c.p.isSlow() {
		time.Sleep(2 * time.Millisecond)
	}
	return c.Conn.Write(b)
}

func (c *trackConn) Close() error {
	c.p.mu.Lock()
	delete(c.p.conns, c)
	c.p.mu.Unlock()
	return c.Conn.Close()
}

// runCluster drives the stream through a real multi-process-shaped
// cluster (N workers over TCP), applying the fault plan between
// ingestions, and returns the merged detection sequence. An observation
// with no reader stands for an explicit AdvanceTo its instant.
func runCluster(t *testing.T, seed int64, workers int, rules []shard.Rule, stream []event.Observation, plan *faults.ClusterPlan) ([]string, int, error) {
	t.Helper()
	base := WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
	procs := make([]*workerProc, workers)
	addrs := make([]string, workers)
	for i := range procs {
		procs[i] = newWorkerProc(t, base)
		addrs[i] = procs[i].addr
	}
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()

	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	var got []string
	coord, err := New(Config{
		Rules:           rules,
		Shards:          4,
		Workers:         addrs,
		Groups:          genGroups,
		TypeOf:          genTypeOf,
		OnDetect:        func(rid int, inst *event.Instance) { got = append(got, sig(rid, inst)) },
		SyncEvery:       3 + r.Intn(9),
		CheckpointEvery: 1 + r.Intn(3),
		RetainJournal:   true,
		BarrierTimeout:  time.Second,
		Seed:            seed,
	})
	if err != nil {
		return nil, 0, err
	}
	defer coord.Abort()

	var plans []faults.ClusterFault
	if plan != nil {
		plans = plan.Faults
	}
	fi := 0
	killed := map[int]int{}
	for i, o := range stream {
		for fi < len(plans) && plans[fi].AtObs <= i {
			applyFault(procs, coord, plans[fi], killed)
			fi++
		}
		step := coord.Ingest
		if o.Reader == "" {
			step = func(o event.Observation) error { return coord.AdvanceTo(o.At) }
		}
		if err := step(o); err != nil {
			return got, coord.Handoffs(), err
		}
	}
	// Any worker still down at the end comes back before the drain: the
	// coordinator needs at least one live worker per shard to finish.
	for _, p := range procs {
		p.restart()
	}
	if err := coord.Close(); err != nil {
		return got, coord.Handoffs(), err
	}
	return got, coord.Handoffs(), nil
}

// killTarget maps the plan's worker choice onto a worker that currently
// hosts at least one shard, so every kill schedule forces a handoff. The
// union-find partition can yield fewer shards than workers; killing a
// shard-less spare would be a non-event.
func killTarget(coord *Coordinator, w, n int) int {
	hosts := map[int]bool{}
	for _, h := range coord.Placement() {
		hosts[h] = true
	}
	var list []int
	for i := 0; i < n; i++ {
		if hosts[i] {
			list = append(list, i)
		}
	}
	if len(list) == 0 {
		return w % n
	}
	return list[w%len(list)]
}

func applyFault(procs []*workerProc, coord *Coordinator, f faults.ClusterFault, killed map[int]int) {
	switch f.Kind {
	case faults.FaultKill:
		target := killTarget(coord, f.Worker, len(procs))
		killed[f.Worker] = target
		procs[target].kill()
	case faults.FaultRestart:
		target, ok := killed[f.Worker]
		if !ok {
			target = f.Worker % len(procs)
		}
		procs[target].restart()
	case faults.FaultPartition:
		procs[f.Worker%len(procs)].partition()
	case faults.FaultSlow:
		procs[f.Worker%len(procs)].setSlow()
	case faults.FaultCorruptCheckpoint:
		coord.InjectCheckpointCorruption(f.Worker%coord.Shards(), func(b []byte) []byte {
			b[len(b)/2] ^= 0x5a
			b[len(b)/3] ^= 0xa5
			return b
		})
	}
}
