package study

import "tquad/internal/pin"

// SetHeartbeatStride sets how many guest instructions elapse between
// heartbeat events (0 restores DefaultHeartbeatStride).  Only meaningful
// with an event sink attached.
func (sc *Scheduler) SetHeartbeatStride(n uint64) {
	sc.mu.Lock()
	sc.pol.beatEvery = n
	sc.mu.Unlock()
}

// AttachGroup attaches the tools of configurations that share one group
// key to one event source, as a replay pass does.
func AttachGroup(h pin.Host, cfgs []RunConfig) ([]*Tools, error) { return attachGroup(h, cfgs, nil) }

// Overhead is a tQUAD configuration's clock, read from its own tools.
func (ts *Tools) Overhead() uint64 { return ts.overhead() }
