package event

import (
	"encoding/json"
	"fmt"
)

// JSON codec for Value: a tagged union so dynamic kinds survive a round
// trip ({"s":…}, {"i":…}, {"f":…}, {"b":…}, {"t":…}, {"l":[…]}, null).
// Used by engine checkpoints and the data-store snapshot format.

type valueJSON struct {
	S *string  `json:"s,omitempty"`
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	B *bool    `json:"b,omitempty"`
	T *int64   `json:"t,omitempty"`
	L *[]Value `json:"l,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) {
	switch v.kind {
	case KindNull:
		return []byte("null"), nil
	case KindString:
		s := v.s()
		return json.Marshal(valueJSON{S: &s})
	case KindInt:
		i := v.i()
		return json.Marshal(valueJSON{I: &i})
	case KindFloat:
		f := v.f()
		return json.Marshal(valueJSON{F: &f})
	case KindBool:
		b := v.b()
		return json.Marshal(valueJSON{B: &b})
	case KindTime:
		t := int64(v.t())
		return json.Marshal(valueJSON{T: &t})
	case KindList:
		l := v.l()
		return json.Marshal(valueJSON{L: &l})
	}
	return nil, fmt.Errorf("event: cannot marshal value kind %v", v.kind)
}

// MarshalJSON renders bindings as a JSON object, byte-identical to the
// former map[string]Value representation (Go sorts map keys; the slice is
// already sorted), so checkpoints and snapshots keep their format.
func (b Bindings) MarshalJSON() ([]byte, error) {
	if b == nil {
		return []byte("null"), nil
	}
	buf := []byte{'{'}
	for i, kv := range b {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(kv.Var)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(kv.Val)
		if err != nil {
			return nil, err
		}
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bindings) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*b = nil
		return nil
	}
	var m map[string]Value
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("event: bad bindings JSON: %w", err)
	}
	*b = MakeBindings(m)
	return nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*v = Null
		return nil
	}
	var vj valueJSON
	if err := json.Unmarshal(data, &vj); err != nil {
		return fmt.Errorf("event: bad value JSON: %w", err)
	}
	switch {
	case vj.S != nil:
		*v = StringValue(*vj.S)
	case vj.I != nil:
		*v = IntValue(*vj.I)
	case vj.F != nil:
		*v = FloatValue(*vj.F)
	case vj.B != nil:
		*v = BoolValue(*vj.B)
	case vj.T != nil:
		*v = TimeValue(Time(*vj.T))
	case vj.L != nil:
		*v = ListValue(*vj.L)
	default:
		*v = Null
	}
	return nil
}
