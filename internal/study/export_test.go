package study

// SetHeartbeatStride sets how many guest instructions elapse between
// heartbeat events (0 restores DefaultHeartbeatStride).  Only meaningful
// with an event sink attached.
func (sc *Scheduler) SetHeartbeatStride(n uint64) {
	sc.mu.Lock()
	sc.pol.beatEvery = n
	sc.mu.Unlock()
}
