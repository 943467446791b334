package conc

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
)

// ErrSaturated is returned by Pool.TryDo when the pool's admission queue is
// full: the task was rejected immediately rather than queued. Servers map it
// to load shedding (HTTP 429).
var ErrSaturated = errors.New("conc: pool saturated")

// Pool is a long-lived bounded concurrency limiter: at most Workers tasks
// run at once, and callers queue (FIFO-ish, via channel semantics) for a
// slot. It is the service-side counterpart of Sweep — where Sweep bounds one
// finite batch, a Pool bounds an open-ended stream of tasks arriving from
// concurrent requests, so one shared Pool keeps a server's total simulation
// parallelism fixed no matter how many requests are in flight.
//
// A pool built with NewQueuedPool additionally bounds how many tasks may
// *wait*: TryDo admits at most Workers running plus QueueDepth queued tasks
// and rejects the rest with ErrSaturated, so a traffic spike turns into fast
// explicit shedding instead of an unbounded pile of blocked goroutines.
type Pool struct {
	sem chan struct{}
	// admit, when non-nil, is the admission-queue semaphore: capacity
	// workers+queueDepth, held from TryDo admission until the task finishes
	// (a running task still occupies its admission token).
	admit chan struct{}
	// waiting counts callers blocked between admission and a worker slot —
	// the queue-occupancy gauge.
	waiting atomic.Int64
}

// NewPool builds a pool running at most workers tasks concurrently;
// workers <= 0 selects GOMAXPROCS. The pool has no admission bound: Do and
// TryDo queue callers without limit.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// NewQueuedPool builds a pool running at most workers tasks concurrently and
// admitting at most queueDepth further tasks to wait for a slot; TryDo
// rejects beyond that with ErrSaturated. queueDepth < 0 means unbounded
// (equivalent to NewPool).
func NewQueuedPool(workers, queueDepth int) *Pool {
	p := NewPool(workers)
	if queueDepth >= 0 {
		p.admit = make(chan struct{}, cap(p.sem)+queueDepth)
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// QueueDepth returns the admission-queue bound (waiting tasks beyond the
// running ones), or -1 for a pool without one.
func (p *Pool) QueueDepth() int {
	if p.admit == nil {
		return -1
	}
	return cap(p.admit) - cap(p.sem)
}

// Queued returns how many callers are currently waiting for a worker slot.
func (p *Pool) Queued() int {
	return int(p.waiting.Load())
}

// Do runs fn once a worker slot is free, blocking until then. If ctx is
// cancelled while waiting, fn never runs and ctx.Err() is returned; once fn
// has started it always runs to completion. Do bypasses the admission queue —
// it is the trusted-caller path (sweeps, probes); request traffic should use
// TryDo.
func (p *Pool) Do(ctx context.Context, fn func()) error {
	select {
	case p.sem <- struct{}{}:
	default:
		// No free worker: wait, visibly (Queued) and cancellably.
		p.waiting.Add(1)
		select {
		case p.sem <- struct{}{}:
			p.waiting.Add(-1)
		case <-ctx.Done():
			p.waiting.Add(-1)
			return ctx.Err()
		}
	}
	defer func() { <-p.sem }()
	fn()
	return nil
}

// TryDo is the admission-controlled Do: if the pool already holds
// Workers+QueueDepth admitted tasks it returns ErrSaturated immediately
// (shed, never queued); otherwise it behaves exactly like Do, including
// returning ctx.Err() when the context ends while the task is still waiting
// for a worker slot.
func (p *Pool) TryDo(ctx context.Context, fn func()) error {
	if p.admit != nil {
		select {
		case p.admit <- struct{}{}:
			defer func() { <-p.admit }()
		default:
			return ErrSaturated
		}
	}
	return p.Do(ctx, fn)
}
