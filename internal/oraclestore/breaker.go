package oraclestore

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerState is the store circuit breaker's state.
type BreakerState int32

const (
	// BreakerClosed: the disk path is healthy; appends persist normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: persistent disk failure; the store serves memory-only
	// (reads from the RAM mirror, writes memoized but not persisted) until a
	// probe succeeds.
	BreakerOpen
	// BreakerHalfOpen: the probe interval elapsed and exactly one trial
	// operation is in flight; its outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// BreakerPolicy tunes a circuit breaker (a store's, a RecordLog's or a remote
// node's).
type BreakerPolicy struct {
	// Failures is how many consecutive failed disk operations (append after
	// retries, open, probe) trip the breaker open. 0 → 3.
	Failures int
	// Probe is how long the breaker stays open before allowing one trial
	// operation through (half-open). 0 → 5s.
	Probe time.Duration
}

// withDefaults fills unset fields with the production defaults.
func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Failures <= 0 {
		p.Failures = 3
	}
	if p.Probe <= 0 {
		p.Probe = 5 * time.Second
	}
	return p
}

// Breaker is the classic three-state circuit breaker. It guards a store's or
// a RecordLog's disk path, and each remote store node. Closed counts
// consecutive failures; at the threshold it opens and the guarded path
// degrades (memory-only, or a cold remote). After the probe interval one
// caller is let through (half-open); success closes the breaker, failure
// re-opens it and restarts the timer. Safe for concurrent use.
type Breaker struct {
	policy BreakerPolicy

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
	opens       int64 // times tripped open, ever
	lastErr     error
}

// NewBreaker returns a closed breaker; zero policy fields take the defaults.
func NewBreaker(policy BreakerPolicy) *Breaker {
	return &Breaker{policy: policy.withDefaults()}
}

// Allow reports whether the caller may touch the guarded path. In the open
// state it flips to half-open once the probe interval has elapsed, admitting
// exactly that caller as the trial; in half-open every other caller is
// refused.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) >= b.policy.Probe {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // BreakerHalfOpen: a trial is already in flight
		return false
	}
}

// Success records an operation that went through; it closes the breaker
// and resets the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.consecutive = 0
	b.lastErr = nil
}

// Failure records a failed operation: it extends the streak and trips
// the breaker when the streak reaches the threshold (immediately when the
// failure was a half-open trial).
func (b *Breaker) Failure(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	b.lastErr = err
	if b.state == BreakerHalfOpen || b.consecutive >= b.policy.Failures {
		if b.state != BreakerOpen {
			b.opens++
		}
		b.state = BreakerOpen
		b.openedAt = time.Now()
	}
}

// State returns the current state without transitioning it.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// snapshot returns the state, streak, trip count and last error under one
// lock acquisition.
func (b *Breaker) snapshot() (state BreakerState, consecutive int, opens int64, lastErr error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.consecutive, b.opens, b.lastErr
}

// RetryPolicy tunes the append retry loop: transient disk errors are retried
// with capped exponential backoff plus jitter before they count as a breaker
// failure.
type RetryPolicy struct {
	// Attempts is the total number of tries per append (first try included).
	// 0 → 4; 1 disables retrying.
	Attempts int
	// Base is the backoff before the first retry; doubled each retry. 0 → 1ms.
	Base time.Duration
	// Cap bounds the backoff. 0 → 50ms.
	Cap time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 50 * time.Millisecond
	}
	return p
}

// backoff returns the sleep before retry number retry (0-based): the capped
// exponential, halved and re-filled with uniform jitter so concurrent
// retriers decorrelate.
func (p RetryPolicy) backoff(retry int) time.Duration {
	d := p.Base << uint(retry)
	if d > p.Cap || d <= 0 {
		d = p.Cap
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}
