package backend

// Shards reports the configured fan-out width.
func (s *Sharded) Shards() int { return s.shards }
