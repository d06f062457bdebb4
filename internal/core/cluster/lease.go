package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// ErrLeaseLost is the fail-stop error a coordinator surfaces when its
// lease renewal finds a different holder or term: a standby has taken
// over, and this incarnation must not issue another barrier.
var ErrLeaseLost = errors.New("cluster: coordinator lease lost")

// leaseDoc is the on-disk lease record. The term is the fencing token:
// every acquisition bumps it, and renewals assert it, so a paused
// coordinator that wakes after a takeover cannot renew its way back in.
type leaseDoc struct {
	Holder    string `json:"holder"`
	Term      uint64 `json:"term"`
	ExpiresNS int64  `json:"expires_ns"`
}

// lease is one coordinator's hold on the leaseDoc at path. All writes
// go through an atomic tmp+rename so readers never see a torn record.
// The file is advisory coordination between one active coordinator and
// its warm standbys on a shared filesystem — the worker-side feed
// eviction on re-assign is the hard fence behind it.
type lease struct {
	path   string
	holder string
	ttl    time.Duration
	term   uint64
}

func readLeaseDoc(path string) (leaseDoc, bool, error) {
	var doc leaseDoc
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return doc, false, nil
	}
	if err != nil {
		return doc, false, fmt.Errorf("cluster: lease: %w", err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, false, fmt.Errorf("cluster: lease %s: corrupt: %w", path, err)
	}
	return doc, true, nil
}

func writeLeaseDoc(path string, doc leaseDoc) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("cluster: lease: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cluster: lease: %w", err)
	}
	return nil
}

// acquireLease takes the lease at path for holder, refusing while a
// different holder's grant is unexpired. Taking it bumps the term.
func acquireLease(path, holder string, ttl time.Duration) (*lease, error) {
	if holder == "" {
		holder = fmt.Sprintf("coord-%d", os.Getpid())
	}
	doc, ok, err := readLeaseDoc(path)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	if ok && doc.Holder != holder && doc.ExpiresNS > now.UnixNano() {
		return nil, fmt.Errorf("cluster: lease %s held by %q for another %s", path, doc.Holder,
			time.Duration(doc.ExpiresNS-now.UnixNano()).Round(time.Millisecond))
	}
	l := &lease{path: path, holder: holder, ttl: ttl, term: doc.Term + 1}
	if err := writeLeaseDoc(path, leaseDoc{Holder: holder, Term: l.term, ExpiresNS: now.Add(ttl).UnixNano()}); err != nil {
		return nil, err
	}
	return l, nil
}

// extend rewrites the grant to expire at exp — but only while the file
// still records this lease's holder and term. Any mismatch means a
// takeover happened, and the successor's record is left untouched.
func (l *lease) extend(exp time.Time) error {
	doc, ok, err := readLeaseDoc(l.path)
	if err != nil {
		return err
	}
	if !ok || doc.Holder != l.holder || doc.Term != l.term {
		return fmt.Errorf("%w: term %d now held by %q (term %d)", ErrLeaseLost, l.term, doc.Holder, doc.Term)
	}
	return writeLeaseDoc(l.path, leaseDoc{Holder: l.holder, Term: l.term, ExpiresNS: exp.UnixNano()})
}
