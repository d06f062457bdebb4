package cluster

// InjectCheckpointCorruption mutates the stored checkpoint for one shard
// — the chaos hook proving the corrupt-checkpoint fallback (assign
// rejection → full journal replay). A no-op when no checkpoint has been
// taken yet.
func (c *Coordinator) InjectCheckpointCorruption(s int, mutate func([]byte) []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s < 0 || s >= len(c.lastCk) || len(c.lastCk[s]) == 0 {
		return
	}
	c.lastCk[s] = mutate(append([]byte(nil), c.lastCk[s]...))
}
