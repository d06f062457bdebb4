// Command rfidfeed streams a CSV observation file (the format rfidsim
// emits: "reader,object,seconds") to an rcepd server over the wire
// protocol. It is the edge-reader side of the paper's deployment shape
// (Fig. 2). Consecutive rows with the same reader and time form one read
// cycle. With -dedup the cycles pass a duplicate filter first: duplicate
// reads are dropped here at the edge, not by rcepd, which assumes each
// reader is fed by one rfidfeed. Each surviving cycle travels as one
// sequenced frame, buffered until acked. A lost connection is re-dialed
// with exponential backoff and the unacked frames are replayed; with
// -spool they are also journaled to disk, so a crashed feeder resumes
// where it left off.
//
// Usage:
//
//	rfidsim -lines 2 | rfidfeed -addr 127.0.0.1:7411 -dedup 1s
//	rfidfeed -addr 127.0.0.1:7411 -input stream.csv -spool edge1.spool -client-id edge1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/pipeline"
	"rcep/internal/stream"
	"rcep/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7411", "rcepd address")
		inputPath = flag.String("input", "-", "observation CSV; - for stdin")
		clientID  = flag.String("client-id", "", "feed identity the server applies each frame once under (default: a fresh one per run; required with -spool)")
		spoolPath = flag.String("spool", "", "journal unacked frames here, so a restarted feed resumes")
		dedup     = flag.Duration("dedup", 0, "drop a reader's repeated reads of an object within this window (0 = off)")
		buffer    = flag.Int("buffer", 1024, "unacked frame ring capacity")
		backoff   = flag.Duration("backoff", 50*time.Millisecond, "initial reconnect backoff")
		maxBack   = flag.Duration("max-backoff", 0, "reconnect backoff ceiling (0 = library default)")
		maxTries  = flag.Int("max-attempts", 0, "give up after this many consecutive failed reconnects (0 = retry forever)")
		drainTO   = flag.Duration("drain-timeout", 0, "bound on waiting for final acks at close (0 = library default)")
		keepalive = flag.Duration("keepalive", 0, "ping a silent connection this often; a server silent for 3 intervals is re-dialed (0 = off)")
		advance   = flag.Duration("advance", 0, "advance the server clock to this offset after the feed (0 = off)")
		quiet     = flag.Bool("quiet", false, "suppress per-firing output")
	)
	flag.Parse()

	if *clientID == "" {
		if *spoolPath != "" {
			log.Fatal("-spool needs -client-id: a spool resumes one feed identity across runs")
		}
		// Fresh per run: a rerun starts again at seq 1, which the server
		// would drop as a stale replay under an identity it already knows.
		host, _ := os.Hostname()
		*clientID = fmt.Sprintf("rfidfeed-%s-%d-%d", host, os.Getpid(), time.Now().UnixNano())
	}
	in := os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	var refused refusals
	opt := wire.ReliableOptions{
		ClientID:     *clientID,
		Buffer:       *buffer,
		Backoff:      *backoff,
		MaxBackoff:   *maxBack,
		MaxAttempts:  *maxTries,
		DrainTimeout: *drainTO,
		Keepalive:    *keepalive,
		OnFire: func(m wire.Message) {
			if !*quiet {
				fmt.Printf("FIRE %-12s [%d .. %d] %v\n", m.Rule, m.BeginNS, m.EndNS, m.Bindings)
			}
		},
		OnReconnect: func(n int) {
			log.Printf("connection lost, reconnect #%d (unacked frames will be replayed)", n)
		},
		OnFrame: refused.observe,
	}
	if *spoolPath != "" {
		sp, err := wire.OpenSpool(*spoolPath)
		if err != nil {
			log.Fatal(err)
		}
		if pending := sp.Pending(); len(pending) > 0 {
			log.Printf("spool %s: replaying %d unacked frames from a previous run", *spoolPath, len(pending))
		}
		opt.Spool = sp
	}
	c, err := wire.DialReliable(*addr, opt)
	if err != nil {
		log.Fatal(err)
	}
	n, stats, err := feed(c, in, *dedup, *advance, &refused)
	if err != nil {
		log.Fatal(err)
	}
	if c.Reconnects() > 0 {
		log.Printf("survived %d reconnects", c.Reconnects())
	}
	fmt.Printf("-- fed %d observations; server total: %d observations, %d detections\n",
		n, stats.Observations, stats.Detections)
}

// refusals counts the server's error frames: frames the engine refused,
// say for arriving behind its clock. The server acks them all the same,
// since sending them again cannot help.
type refusals struct {
	mu    sync.Mutex
	n     int
	first string
}

// observe is the client's OnFrame callback.
func (r *refusals) observe(m wire.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.Type == "error" {
		if r.n++; r.n == 1 {
			r.first = m.Msg
		}
	}
}

func (r *refusals) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	return fmt.Errorf("the server refused %d frame(s); the first: %s", r.n, r.first)
}

// feed sends the CSV observations read from in through c, one SendBatch
// per read cycle (consecutive rows with the same reader and time), past a
// pipeline.Dedup stage when dedup > 0. An advance > 0 then moves the
// server clock to that offset. feed closes c, draining what was sent even
// after a bad row, and returns the rows read and the server's stats. A
// frame the server refused (counted by refused, c's OnFrame) fails the
// feed: the stats reply follows every earlier error frame, so the count
// is complete once Close returns.
func feed(c *wire.ReliableClient, in io.Reader, dedup, advance time.Duration, refused *refusals) (int, wire.Message, error) {
	var stages []pipeline.StageFunc
	if dedup > 0 {
		stages = append(stages, pipeline.Dedup(dedup))
	}
	rows := 0
	var frame []wire.BatchObs
	err := pipeline.RunBatches(context.Background(), pipeline.BatchedConfig{
		Source: func(_ context.Context, emit func(event.Batch) error) error {
			var cycle event.Batch
			n, err := stream.ReadCSV(in, func(o event.Observation) error {
				if len(cycle) > 0 && (o.Reader != cycle[0].Reader || o.At != cycle[0].At) {
					b := cycle
					cycle = nil
					if err := emit(b); err != nil {
						return err
					}
				}
				if cycle == nil {
					cycle = event.GetBatch()
				}
				cycle = append(cycle, o)
				return nil
			})
			rows = n
			if len(cycle) > 0 {
				if eerr := emit(cycle); err == nil {
					err = eerr
				}
			}
			return err
		},
		Stages: stages,
		Sink: func(b event.Batch) error {
			frame = frame[:0]
			for _, o := range b {
				frame = append(frame, wire.BatchObs{Reader: o.Reader, Object: o.Object, AtNS: int64(o.At)})
			}
			return c.SendBatch(frame)
		},
	})
	if err == nil && advance > 0 {
		err = c.Advance(advance)
	}
	stats, cerr := c.Close()
	if err == nil {
		err = cerr
	}
	if err == nil {
		err = refused.err()
	}
	return rows, stats, err
}
