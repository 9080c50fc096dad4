// The lifecycle event bus: a bounded, non-blocking fan-out of structured
// scheduler events (queued, started, heartbeat, retry, checkpointed,
// succeeded, failed, stalled) to any number of subscribers.  It is the
// transport behind the live telemetry server's /events stream.
//
// Design constraints, in priority order:
//
//  1. Publishers never block and never slow the run down: Publish takes
//     one short mutex hold and a non-blocking channel send per
//     subscriber.  A subscriber that stops draining loses events (its
//     drop is counted), it never backpressures the sweep.
//  2. Disabled is free: a nil *Bus (and a nil EventSink held by the
//     scheduler) makes every emit a single nil check, preserving the
//     package's zero-cost-when-off contract and the byte-identical
//     golden outputs with -serve unset.
//  3. Events are self-describing JSON so the SSE/JSONL stream needs no
//     side channel: every field the dashboard renders rides on the
//     event itself.
package obs

import (
	"sync"
	"time"
)

// Lifecycle event types carried on the bus.  Declared here so emitters
// (internal/study), the progress model (internal/obs/live) and tests
// share one spelling.
const (
	// EventQueued: a run (or recording) was submitted to the scheduler.
	EventQueued = "queued"
	// EventStarted: an execution attempt entered a worker slot.
	EventStarted = "started"
	// EventHeartbeat: periodic progress from a live guest's block-boundary
	// watchdog or a trace replay's record stride.
	EventHeartbeat = "heartbeat"
	// EventRetry: a transiently failed attempt is being re-executed.
	EventRetry = "retry"
	// EventCheckpointed: the run's result (or its recording's trace) was
	// served from or persisted into a checkpoint journal; a recording's
	// trace also when adopted from a trace source or kept at a sink.
	EventCheckpointed = "checkpointed"
	// EventSucceeded: the run completed and its result is available.
	EventSucceeded = "succeeded"
	// EventFailed: the run failed permanently (retries exhausted included).
	EventFailed = "failed"
	// EventStalled: the stall detector saw no heartbeat from a running run
	// for its configured window.  Emitted by the progress model, not by
	// the scheduler.
	EventStalled = "stalled"
)

// Event is one structured lifecycle event.  Key identifies the run (a
// study.RunConfig key, or "record/guest" for the guest recording).
// Progress fields are populated on heartbeats: ICount versus Budget is
// the position, Rate the observed instructions/second, ETASeconds the
// projected time to completion (both enriched by the progress model;
// raw scheduler heartbeats carry only ICount and Budget).
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Type    string    `json:"type"`
	Key     string    `json:"key"`
	Attempt int       `json:"attempt,omitempty"`

	ICount     uint64  `json:"icount,omitempty"`
	Budget     uint64  `json:"budget,omitempty"`
	Rate       float64 `json:"rate,omitempty"`
	ETASeconds float64 `json:"eta_s,omitempty"`

	Err string `json:"error,omitempty"`
}

// EventSink consumes lifecycle events.  *Bus implements it directly;
// the live progress model (internal/obs/live.Tracker) implements it by
// enriching events before forwarding them to its bus.  Emitters hold an
// EventSink and must treat a nil interface as "disabled".
type EventSink interface {
	Publish(Event)
}

// Bus is the bounded non-blocking event fan-out.  A nil *Bus is the
// disabled bus: Publish and Subscribe are no-ops.  Safe for concurrent
// use.
type Bus struct {
	mu      sync.Mutex
	seq     uint64
	buf     int
	subs    map[chan Event]struct{}
	dropped uint64
}

// DefaultBusBuffer is the per-subscriber channel depth used when NewBus
// is given a non-positive buffer size.
const DefaultBusBuffer = 256

// NewBus creates a bus whose subscribers each get a buffered channel of
// the given depth (<= 0 selects DefaultBusBuffer).
func NewBus(buffer int) *Bus {
	if buffer <= 0 {
		buffer = DefaultBusBuffer
	}
	return &Bus{buf: buffer, subs: make(map[chan Event]struct{})}
}

// Publish assigns the event its sequence number and timestamp (when the
// emitter left Time zero) and delivers it to every subscriber without
// blocking: a full subscriber buffer drops the event for that subscriber
// and counts the drop.  A nil bus ignores the event.
func (b *Bus) Publish(ev Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
			b.dropped++
		}
	}
	b.mu.Unlock()
}

// Dropped returns how many subscriber deliveries were discarded because
// a subscriber's buffer was full.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Seq returns the sequence number of the most recently published event.
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Subscription is one subscriber's bounded event feed.
type Subscription struct {
	bus *Bus
	ch  chan Event
}

// Subscribe registers a new subscriber.  Returns nil on a nil bus.
func (b *Bus) Subscribe() *Subscription {
	if b == nil {
		return nil
	}
	ch := make(chan Event, b.buf)
	b.mu.Lock()
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return &Subscription{bus: b, ch: ch}
}

// Events returns the subscription's channel.  It is closed by Close.
// Returns nil on a nil subscription.
func (s *Subscription) Events() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Close unregisters the subscription and closes its channel.  Safe to
// call once; events published after Close are not delivered.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.bus.mu.Lock()
	if _, ok := s.bus.subs[s.ch]; ok {
		delete(s.bus.subs, s.ch)
		close(s.ch)
	}
	s.bus.mu.Unlock()
}
