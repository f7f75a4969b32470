package serve

// Per-cell circuit breakers. The harness runs each cell once and reports
// a typed failure; the breaker sits one level up and protects the
// *service*: once a given (artifact, profile) cell has failed several
// requests in a row, further requests for it are refused immediately —
// cheap, typed, with a Retry-After — instead of occupying a worker for
// another doomed deadline. A half-open probe readmits one request after
// the cooldown; its outcome decides whether the breaker closes or
// re-opens.

import (
	"sync"
	"time"
)

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen // cooldown elapsed, one probe is in flight
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

type breaker struct {
	state breakerState
	fails int       // consecutive failures while closed
	until time.Time // open until (when state == breakerOpen)
}

// breakerSet holds one breaker per cell label. A zero failure threshold
// disables the whole set (allow always, report a no-op).
type breakerSet struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests
	states    map[string]*breaker
	trips     int
}

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	if threshold <= 0 {
		return nil
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		states:    make(map[string]*breaker),
	}
}

// allow reports whether a request for the labeled cell may proceed. When
// refused, retryAfter is how long until the breaker will probe again.
func (bs *breakerSet) allow(label string) (ok bool, retryAfter time.Duration) {
	if bs == nil {
		return true, 0
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.states[label]
	if b == nil {
		return true, 0
	}
	switch b.state {
	case breakerOpen:
		now := bs.now()
		if now.Before(b.until) {
			return false, b.until.Sub(now)
		}
		b.state = breakerHalfOpen
		return true, 0
	case breakerHalfOpen:
		// One probe at a time; concurrent requests wait out the probe.
		return false, bs.cooldown
	default:
		return true, 0
	}
}

// report records a terminal outcome for the labeled cell. Canceled
// requests must not be reported: a drain says nothing about cell health.
func (bs *breakerSet) report(label string, failed bool) {
	if bs == nil {
		return
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.states[label]
	if b == nil {
		if !failed {
			return // healthy and unknown: nothing to track
		}
		b = &breaker{}
		bs.states[label] = b
	}
	if !failed {
		b.state = breakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || b.fails >= bs.threshold {
		b.state = breakerOpen
		b.until = bs.now().Add(bs.cooldown)
		b.fails = 0
		bs.trips++
	}
}

// breakerInfo is the /debug/serve projection of one breaker.
type breakerInfo struct {
	State string    `json:"state"`
	Fails int       `json:"fails,omitempty"`
	Until time.Time `json:"until,omitempty"`
}

func (bs *breakerSet) snapshot() (states map[string]breakerInfo, trips int) {
	if bs == nil {
		return nil, 0
	}
	bs.mu.Lock()
	defer bs.mu.Unlock()
	states = make(map[string]breakerInfo, len(bs.states))
	for label, b := range bs.states {
		info := breakerInfo{State: b.state.String(), Fails: b.fails}
		if b.state == breakerOpen {
			info.Until = b.until
		}
		states[label] = info
	}
	return states, bs.trips
}
