package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"
)

// offlineClient is a reliable client whose dial blocks until the test
// ends: no session runs and nothing else allocates, so the test drives
// the ring alone.
func offlineClient(t *testing.T, opt ReliableOptions) *ReliableClient {
	t.Helper()
	stop := make(chan struct{})
	opt.Dial = func() (net.Conn, error) { <-stop; return nil, errors.New("test over") }
	opt.MaxAttempts = 1
	c, err := DialReliable("offline", opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { close(stop); c.Abort() })
	return c
}

// modelFrame is one unacked frame of the plain-slice ring model.
type modelFrame struct {
	seq   uint64
	typ   string
	batch []BatchObs
}

// TestReliableRingMatchesModel drives the circular ring through seeded
// enqueues, cumulative acks and replay takes from the ack cursor, and
// after every step compares it with a plain slice that follows the
// sliding ring's semantics: frames in ascending seq, an ack drops the
// prefix it covers, a take is the suffix past the cursor. Nothing is
// shed, so the ring must hold exactly the seqs acked+1 through next-1. A
// frame the take holds must keep its contents, even once an ack releases
// it, until the next take ends the window.
func TestReliableRingMatchesModel(t *testing.T) {
	for _, buffer := range []int{1, 2, 7, 1024} {
		// shed=false names the only policy: nothing is shed.
		t.Run(fmt.Sprintf("buffer=%d/shed=false", buffer), func(t *testing.T) {
			c := offlineClient(t, ReliableOptions{ClientID: "model", Buffer: buffer})
			rng := rand.New(rand.NewSource(int64(buffer) * 2))
			var model, held []modelFrame
			var taken []*Message
			next, acked := uint64(1), uint64(0)
			phase := 2*buffer + 50
			for step := 0; step < 6*buffer+3000; step++ {
				outage := step/phase%2 == 1 // no acks: the ring fills
				switch r := rng.Intn(10); {
				case r < 6 || outage && r < 9:
					m := Message{Type: "advance", AtNS: int64(step)}
					if rng.Intn(4) > 0 {
						m.Type = "batch"
						for k := rng.Intn(5) + 1; k > 0; k-- {
							m.Batch = append(m.Batch, BatchObs{Reader: fmt.Sprint("r", rng.Intn(3)), Object: fmt.Sprint("o", step), AtNS: int64(k)})
						}
					}
					seq, err := c.TrySendFrame(m)
					if len(model) >= buffer {
						if !errors.Is(err, ErrRingFull) {
							t.Fatalf("step %d: full ring took a frame: seq %d, err %v", step, seq, err)
						}
						break
					}
					if err != nil || seq != next {
						t.Fatalf("step %d: enqueue = %d, %v; want seq %d", step, seq, err, next)
					}
					model = append(model, modelFrame{next, m.Type, slices.Clone(m.Batch)})
					next++
				case r < 9:
					// An ack past next-1 fails the client (ReusedClientIDError);
					// TestReliableReusedClientIDFails covers it.
					seq := acked + uint64(rng.Intn(int(next-acked)))
					c.handleAck(seq)
					if seq > acked {
						model = slices.DeleteFunc(model, func(f modelFrame) bool { return f.seq <= seq })
						acked = seq
					}
				default:
					for i, f := range taken {
						if got := frameOf(f); !sameFrame(got, held[i]) {
							t.Fatalf("step %d: taken frame %d changed before the next take: %+v", step, held[i].seq, got)
						}
					}
					cursor := acked + uint64(rng.Intn(int(next-acked)))
					c.mu.Lock()
					taken = c.takeLocked(cursor, taken[:0])
					c.mu.Unlock()
					held = held[:0]
					for _, f := range model {
						if f.seq > cursor {
							held = append(held, f)
						}
					}
					if len(taken) != len(held) {
						t.Fatalf("step %d: take past %d holds %d frames, want %d", step, cursor, len(taken), len(held))
					}
					for i, f := range taken {
						if got := frameOf(f); !sameFrame(got, held[i]) {
							t.Fatalf("step %d: take[%d] = %+v, want %+v", step, i, got, held[i])
						}
					}
				}
				checkRing(t, step, c, model, acked, next)
			}
		})
	}
}

func frameOf(f *Message) modelFrame { return modelFrame{f.Seq, f.Type, f.Batch} }

func sameFrame(a, b modelFrame) bool {
	return a.seq == b.seq && a.typ == b.typ && slices.Equal(a.batch, b.batch)
}

// checkRing compares the client's ring with the model, oldest first, and
// asserts that it holds exactly the seqs acked+1 through next-1: the
// layout the arithmetic of after relies on.
func checkRing(t *testing.T, step int, c *ReliableClient, model []modelFrame, acked, next uint64) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count != len(model) || c.acked != acked || c.next != next || uint64(c.count) != next-1-acked {
		t.Fatalf("step %d: ring holds %d frames, acked %d, next %d; want %d frames (model %d), acked %d, next %d",
			step, c.count, c.acked, c.next, next-1-acked, len(model), acked, next)
	}
	for i, want := range model {
		f := c.at(i)
		if !sameFrame(frameOf(f), want) || f.ClientID != "model" || f.Seq != acked+1+uint64(i) {
			t.Fatalf("step %d: ring[%d] = %+v (client %q), want %+v with seq %d", step, i, frameOf(f), f.ClientID, want, acked+1+uint64(i))
		}
	}
}

// TestReliableHelloAckSparesTakenFrames: the server's answer to a new
// session's hello acks frames the writer has already taken for replay,
// while the writer is still putting them. Those frames are released but
// must not be recycled under the writer: frames sent meanwhile reuse
// storage, and every frame on the wire must still equal what was
// enqueued under its seq. Run it with -race as well.
func TestReliableHelloAckSparesTakenFrames(t *testing.T) {
	const replayed, fresh, perFrame = 40, 40, 64
	conns := make(chan net.Conn)
	stop := make(chan struct{})
	c, err := DialReliable("pipe", ReliableOptions{
		ClientID: "edge", Backoff: time.Millisecond, MaxBackoff: time.Millisecond,
		Dial: func() (net.Conn, error) {
			select {
			case conn := <-conns:
				return conn, nil
			case <-stop:
				return nil, errors.New("test over")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(stop); c.Abort() }()
	sent := map[uint64][]BatchObs{}
	send := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b := make([]BatchObs, perFrame)
			for j := range b {
				b[j] = BatchObs{Reader: "r1", Object: fmt.Sprintf("o%d-%d", i, j), AtNS: int64(i*perFrame + j)}
			}
			if err := c.SendBatch(b); err != nil {
				t.Fatal(err)
			}
			sent[uint64(i+1)] = b
		}
	}
	read := func(fr *FrameReader, typ string) Message {
		t.Helper()
		var m Message
		if err := fr.Read(&m); err != nil {
			t.Fatal(err)
		}
		if m.Type != typ {
			t.Fatalf("read a %q frame, want %q", m.Type, typ)
		}
		if typ == "batch" && !slices.Equal(m.Batch, sent[m.Seq]) {
			t.Fatalf("frame %d on the wire differs from the one enqueued under its seq", m.Seq)
		}
		return m
	}
	send(0, replayed)

	// Session 1 delivers every frame, then dies before the server acks.
	srv, cli := net.Pipe()
	conns <- cli
	fr := NewFrameReader(srv)
	read(fr, "hello")
	for i := 1; i <= replayed; i++ {
		if m := read(fr, "batch"); m.Seq != uint64(i) {
			t.Fatalf("session 1 frame %d has seq %d", i, m.Seq)
		}
	}
	srv.Close()

	// Session 2: the hello is answered only once the replay has begun,
	// so the writer holds every replayed frame when the ack frees them.
	srv, cli = net.Pipe()
	defer srv.Close()
	conns <- cli
	fr, w := NewFrameReader(srv), NewFrameWriter(srv)
	read(fr, "hello")
	if m := read(fr, "batch"); m.Seq != 1 {
		t.Fatalf("replay starts at seq %d, want 1", m.Seq)
	}
	if err := w.Send(&Message{Type: "ack", Seq: replayed}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); c.Acked() != replayed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ack %d never applied (acked %d)", replayed, c.Acked())
		}
	}
	send(replayed, replayed+fresh)
	for seq := uint64(2); seq <= replayed+fresh; seq++ {
		if m := read(fr, "batch"); m.Seq != seq {
			t.Fatalf("frame with seq %d on the wire, want %d", m.Seq, seq)
		}
	}
	if err := w.Send(&Message{Type: "ack", Seq: replayed + fresh}); err != nil {
		t.Fatal(err)
	}
}

// TestReliableSendBatchAllocatesNothing: in steady state a SendBatch and
// the ack that releases it recycle one frame and its batch storage.
func TestReliableSendBatchAllocatesNothing(t *testing.T) {
	c := offlineClient(t, ReliableOptions{ClientID: "alloc", Buffer: 16})
	obs := []BatchObs{{Reader: "r1", Object: "o1", AtNS: 1}, {Reader: "r1", Object: "o2", AtNS: 2}}
	round := func() {
		if err := c.SendBatch(obs); err != nil {
			t.Fatal(err)
		}
		c.handleAck(c.Acked() + 1)
	}
	round()
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("a SendBatch and its ack allocate %v times, want 0", n)
	}
	if c.Unacked() != 0 || c.Acked() != 1002 {
		t.Fatalf("Unacked %d, Acked %d: want 0 and 1002", c.Unacked(), c.Acked())
	}
}
