// Package event defines the RFID event model of Wang et al. (EDBT 2006):
// primitive reader observations, event instances with begin/end times, the
// time functions t_begin, t_end, interval and dist, variable bindings, and
// the abstract syntax of complex event expressions built from the
// constructors OR, AND, NOT, SEQ, TSEQ, SEQ+, TSEQ+ and WITHIN.
package event

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Time is a point on the engine's virtual timeline, in nanoseconds since an
// arbitrary epoch. Virtual time keeps detection deterministic and lets the
// simulator replay histories far faster than real time.
type Time int64

// Sentinel times. MinTime sorts before and MaxTime after every valid
// timestamp; they are never produced by observations.
const (
	MinTime Time = math.MinInt64
	MaxTime Time = math.MaxInt64
)

// Add returns t shifted by d. The result saturates at MinTime/MaxTime so
// constraint arithmetic near the sentinels cannot wrap around.
func (t Time) Add(d time.Duration) Time {
	if t == MaxTime || t == MinTime {
		return t
	}
	s := t + Time(d)
	if d > 0 && s < t {
		return MaxTime
	}
	if d < 0 && s > t {
		return MinTime
	}
	return s
}

// Sub returns the duration t − u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String renders the time as seconds with millisecond precision, the unit
// used throughout the paper's examples.
func (t Time) String() string {
	switch t {
	case MinTime:
		return "-inf"
	case MaxTime:
		return "+inf"
	}
	return fmt.Sprintf("%.3fs", float64(t)/float64(time.Second))
}

// AppendText appends String()'s rendering to dst without allocating.
func (t Time) AppendText(dst []byte) []byte {
	switch t {
	case MinTime:
		return append(dst, "-inf"...)
	case MaxTime:
		return append(dst, "+inf"...)
	}
	dst = strconv.AppendFloat(dst, float64(t)/float64(time.Second), 'f', 3, 64)
	return append(dst, 's')
}

// Observation is the sole primitive event in the model: reader r observed
// object o at time t (paper §2.1). Primitive events are instantaneous and
// atomic.
type Observation struct {
	Reader string // reader EPC
	Object string // object (tag) EPC
	At     Time   // observation timestamp
}

// String implements fmt.Stringer.
func (o Observation) String() string {
	return fmt.Sprintf("observation(%s, %s, %s)", o.Reader, o.Object, o.At)
}

// Instance is an occurrence of an event, primitive or complex. Primitive
// instances have Begin == End; complex instances span the occurrences of
// their constituents.
type Instance struct {
	Begin, End Time
	Binds      Bindings // variable bindings accumulated from constituents

	// Seq is a strictly increasing arrival number assigned by the engine.
	// It breaks timestamp ties deterministically and implements "oldest"
	// in the chronicle context.
	Seq uint64
}

// Interval returns t_end(e) − t_begin(e) (paper §2).
func (in *Instance) Interval() time.Duration { return in.End.Sub(in.Begin) }

// Dist returns dist(e1, e2) = t_end(e2) − t_end(e1) (paper §2). It is
// negative when e2 ends before e1.
func Dist(e1, e2 *Instance) time.Duration { return e2.End.Sub(e1.End) }

// Interval2 returns interval(e1, e2) = max(t_ends) − min(t_begins), the
// combined span of the two instances (paper §2).
func Interval2(e1, e2 *Instance) time.Duration {
	end := e1.End
	if e2.End > end {
		end = e2.End
	}
	begin := e1.Begin
	if e2.Begin < begin {
		begin = e2.Begin
	}
	return end.Sub(begin)
}

// SpanWith returns the begin and end of the union span of e1 and e2.
func SpanWith(e1, e2 *Instance) (Time, Time) {
	begin := e1.Begin
	if e2.Begin < begin {
		begin = e2.Begin
	}
	end := e1.End
	if e2.End > end {
		end = e2.End
	}
	return begin, end
}

// String implements fmt.Stringer.
func (in *Instance) String() string {
	if in.Begin == in.End {
		return fmt.Sprintf("[%s %s]", in.Begin, in.Binds)
	}
	return fmt.Sprintf("[%s..%s %s]", in.Begin, in.End, in.Binds)
}
