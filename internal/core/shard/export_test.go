package shard

import "rcep/internal/core/event"

// Now returns the router's current virtual time.
func (e *Engine) Now() event.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}
