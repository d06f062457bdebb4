package eca

// Metrics returns a snapshot of the counters.
func (e *Engine) Metrics() Metrics { return e.m }
