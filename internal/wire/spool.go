package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Spool is a write-ahead journal for a ReliableClient, mirroring the
// store WAL's append-only JSON-lines idiom: every sequenced frame is
// journaled before it enters the in-memory ring, and every cumulative
// ack is journaled as it arrives. If the edge process crashes, reopening
// the spool recovers the frames the server never acknowledged — and the
// next sequence number — so the feed resumes with no loss and no reuse
// of sequence numbers.
//
// Entries: {"seq":N,"m":{...}} journals a frame, {"ack":N} a cumulative
// ack. Opening compacts the file down to the still-unacked frames.
//
// Spools written by older clients journal one "obs" frame per
// observation. Opening refuses one that still holds an unacked "obs"
// frame and leaves the file as it is: drain it with the build that wrote
// it first.
type Spool struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	enc     *json.Encoder
	lastSeq uint64 // highest frame seq ever journaled
	lastAck uint64
	pending []Message // unacked frames recovered at open
}

type spoolEntry struct {
	Seq uint64   `json:"seq,omitempty"`
	Ack uint64   `json:"ack,omitempty"`
	M   *Message `json:"m,omitempty"`
}

// OpenSpool opens (or creates) a spool file, replays it, and compacts it
// to the unacked suffix. The recovered frames are available via Pending.
func OpenSpool(path string) (*Spool, error) {
	s := &Spool{path: path}
	if f, err := os.Open(path); err == nil {
		err = s.replay(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	// Compact: rewrite only what is still pending, then append from there.
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.pending {
		if err := enc.Encode(spoolEntry{Seq: s.pending[i].Seq, M: &s.pending[i]}); err != nil {
			f.Close()
			return nil, err
		}
	}
	if s.lastSeq > 0 || s.lastAck > 0 {
		// Preserve the high-water marks even when nothing is pending.
		if err := enc.Encode(spoolEntry{Ack: s.lastAck}); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	s.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.w = bufio.NewWriter(s.f)
	s.enc = json.NewEncoder(s.w)
	return s, nil
}

func (s *Spool) replay(r io.Reader) error {
	br := bufio.NewReader(r)
	frames := map[uint64]Message{}
	order := []uint64{}
	var bad []byte // undecodable suffix, quarantined instead of trusted
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			var e spoolEntry
			if uerr := json.Unmarshal(line, &e); uerr != nil {
				// A torn record — typically the final append of an
				// unclean shutdown cut mid-line. Nothing after it can be
				// trusted either (offsets are gone), so the whole suffix
				// is rejected and preserved in the .quarantine side file
				// rather than silently discarded or crashed on.
				bad = append(bad, line...)
				rest, rerr := io.ReadAll(br)
				bad = append(bad, rest...)
				if rerr != nil {
					return rerr
				}
				break
			}
			s.applyEntry(&e, frames, &order)
		}
		if err == io.EOF {
			break
		} else if err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		s.quarantine(bad)
	}
	for _, seq := range order {
		if seq > s.lastAck {
			if frames[seq].Type == "obs" {
				return fmt.Errorf("wire: spool %s holds unacked \"obs\" frames, an older client's format; drain it with the build that wrote it", s.path)
			}
			s.pending = append(s.pending, frames[seq])
		}
	}
	if s.lastAck > s.lastSeq {
		s.lastSeq = s.lastAck
	}
	return nil
}

// quarantine preserves rejected journal bytes in path+".quarantine" for
// operator inspection. Best effort: recovery of the good prefix must not
// fail because the evidence file could not be written.
func (s *Spool) quarantine(b []byte) {
	f, err := os.OpenFile(s.QuarantinePath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	_, _ = f.Write(b)
	_ = f.Close()
}

func (s *Spool) applyEntry(e *spoolEntry, frames map[uint64]Message, order *[]uint64) {
	if e.M != nil && e.Seq > 0 {
		if _, dup := frames[e.Seq]; !dup {
			*order = append(*order, e.Seq)
		}
		frames[e.Seq] = *e.M
		if e.Seq > s.lastSeq {
			s.lastSeq = e.Seq
		}
	} else if e.Ack > s.lastAck {
		s.lastAck = e.Ack
	}
}

// QuarantinePath is the side file that receives rejected journal bytes.
func (s *Spool) QuarantinePath() string { return s.path + ".quarantine" }

// Pending returns the frames journaled but never acked, in sequence
// order — what a restarted client must replay.
func (s *Spool) Pending() []Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Message(nil), s.pending...)
}

// LastSeq returns the highest sequence number ever journaled; a resuming
// client continues at LastSeq()+1.
func (s *Spool) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// LastAck returns the highest cumulative ack journaled.
func (s *Spool) LastAck() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAck
}

// Append journals one sequenced frame and flushes it to the OS before
// returning, so an acked-later frame is never only in process memory.
func (s *Spool) Append(m Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		return fmt.Errorf("wire: spool %s is closed", s.path)
	}
	if err := s.enc.Encode(spoolEntry{Seq: m.Seq, M: &m}); err != nil {
		return err
	}
	if m.Seq > s.lastSeq {
		s.lastSeq = m.Seq
	}
	return s.w.Flush()
}

// Ack journals a cumulative ack.
func (s *Spool) Ack(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		return fmt.Errorf("wire: spool %s is closed", s.path)
	}
	if seq <= s.lastAck {
		return nil
	}
	s.lastAck = seq
	if err := s.enc.Encode(spoolEntry{Ack: seq}); err != nil {
		return err
	}
	return s.w.Flush()
}

// Close flushes and closes the journal file. The on-disk state is left
// intact for the next OpenSpool to recover.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.w, s.enc = nil, nil, nil
	return err
}
