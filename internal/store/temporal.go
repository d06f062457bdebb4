package store

import (
	"cmp"
	"slices"

	"rcep/internal/core/event"
)

// Temporal queries over the RFID data model (Wang & Liu, VLDB 2005 —
// reference [2] of the paper): location and containment histories, and
// effective locations that follow containment chains (an item inside a
// case is where the case is).

// Period is a half-open validity interval [Start, End); End == UC means
// "until changed".
type Period struct {
	Start, End event.Time
}

// LocationStay is one entry of an object's location history.
type LocationStay struct {
	Location string
	Period
}

// ContainmentSpan is one entry of an object's containment history.
type ContainmentSpan struct {
	Parent string
	Period
}

// LocationHistory returns the object's location history ordered by start
// time.
func LocationHistory(s *Store, objectEPC string) ([]LocationStay, error) {
	return history(s, TableLocation, objectEPC, func(loc string, p Period) LocationStay { return LocationStay{loc, p} })
}

// ContainmentHistory returns the object's containment history ordered by
// start time.
func ContainmentHistory(s *Store, objectEPC string) ([]ContainmentSpan, error) {
	return history(s, TableContainment, objectEPC, func(parent string, p Period) ContainmentSpan { return ContainmentSpan{parent, p} })
}

// history returns the object's rows of a history table, each made an
// entry by mk from its second column and its period, ordered by start.
func history[T interface{ period() Period }](s *Store, table, objectEPC string, mk func(string, Period) T) ([]T, error) {
	t, err := s.Table(table)
	if err != nil {
		return nil, err
	}
	var out []T
	if err := t.Lookup("object_epc", event.StringValue(objectEPC), func(_ int64, r Row) bool {
		out = append(out, mk(r[1].Str(), Period{Start: r[2].Time(), End: r[3].Time()}))
		return true
	}); err != nil {
		return nil, err
	}
	slices.SortFunc(out, func(a, b T) int { return cmp.Compare(a.period().Start, b.period().Start) })
	return out, nil
}

func (p Period) period() Period { return p }

// EffectiveLocationAt resolves where an object actually was at time at:
// its own recorded location if any, else its container's effective
// location at that time, following the containment chain. A chain over
// 64 deep, as a containment cycle in corrupt data makes it, resolves to
// nowhere.
func EffectiveLocationAt(s *Store, objectEPC string, at event.Time) (string, bool) {
	cur := objectEPC
	for depth := 0; depth < 64; depth++ {
		if loc, ok := LocationAt(s, cur, at); ok {
			return loc, true
		}
		parent, ok := ContainerAt(s, cur, at)
		if !ok {
			return "", false
		}
		cur = parent
	}
	return "", false
}

// Trace reconstructs an object's full movement: the merged, time-ordered
// sequence of effective location stays, following containment where the
// object has no location of its own. Boundaries come from both the
// object's and its ancestors' history rows.
func Trace(s *Store, objectEPC string) ([]LocationStay, error) {
	// Collect candidate boundary timestamps: the object's own rows plus
	// every ancestor's rows reachable through its containment spans.
	ts := make([]event.Time, 0, 16) // on the stack for up to 16 boundaries
	addBounds := func(p Period) {
		ts = append(ts, p.Start)
		if p.End != UC {
			ts = append(ts, p.End)
		}
	}
	addHistory := func(epc string) error {
		hist, err := LocationHistory(s, epc)
		for _, h := range hist {
			addBounds(h.Period)
		}
		return err
	}
	if err := addHistory(objectEPC); err != nil {
		return nil, err
	}
	spans, err := ContainmentHistory(s, objectEPC)
	if err != nil {
		return nil, err
	}
	for _, sp := range spans {
		addBounds(sp.Period)
		// One level of ancestry is enough for boundary detection in
		// practice; deeper chains re-resolve per boundary below.
		if err := addHistory(sp.Parent); err != nil {
			return nil, err
		}
	}
	if len(ts) == 0 {
		return nil, nil
	}
	slices.Sort(ts)
	ts = slices.Compact(ts)

	var out []LocationStay
	for i, start := range ts {
		loc, ok := EffectiveLocationAt(s, objectEPC, start)
		if !ok {
			continue
		}
		end := UC
		if i+1 < len(ts) {
			end = ts[i+1]
		}
		if n := len(out); n > 0 && out[n-1].Location == loc && out[n-1].End == start {
			out[n-1].End = end // merge adjacent stays at the same place
			continue
		}
		out = append(out, LocationStay{Location: loc, Period: Period{Start: start, End: end}})
	}
	return out, nil
}
