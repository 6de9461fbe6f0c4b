package serve

import (
	"context"
	"sync"

	"freshsource/internal/obs"
)

// coalescer deduplicates identical-key work that is already in flight (the
// classic singleflight shape): the first request for a key becomes the
// *leader* and runs the computation at once; every request for the same key
// that arrives before the leader publishes becomes a *follower* and
// receives the leader's bytes. Nothing is held open waiting for company: a
// leader never delays its own computation, so a request no one else asks
// for pays nothing for coalescing.
//
// Exactness: followers are only ever answered with bytes the leader
// computed for the *identical canonical key* (which includes the serving
// generation id), and the computation itself is deterministic for a fixed
// (generation, key). A coalesced response is therefore byte-identical to
// the response the follower would have computed alone, at any concurrency —
// coalescing changes scheduling, never content. This is pinned by
// TestCoalescedByteIdentical.
//
// The flight is removed before publication, so requests arriving after the
// leader publishes start a fresh flight and observe fresh state.
type coalescer struct {
	scope string // metric scope, e.g. "serve.tenant.acme.coalesce.select"

	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one in-progress coalesced computation. code and body are
// written by the leader before done is closed and read-only afterwards.
type flight struct {
	done chan struct{}
	code int
	body []byte
}

func newCoalescer(scope string) *coalescer {
	return &coalescer{scope: scope, flights: make(map[string]*flight)}
}

// Do returns the coalesced response for key. The leader runs compute
// exactly once; followers wait for the leader's publication, bounded by
// their own ctx — a follower whose deadline fires gets ctx.Err() while the
// leader's computation continues for everyone else. compute must not
// depend on the calling request's context (the server runs it under a
// detached, timeout-bounded context for exactly this reason).
func (c *coalescer) Do(ctx context.Context, key string, compute func() (int, []byte)) (int, []byte, error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		obs.Counter(c.scope + ".followers").Inc()
		select {
		case <-f.done:
			return f.code, f.body, nil
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	obs.Counter(c.scope + ".leaders").Inc()

	f.code, f.body = compute()
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	return f.code, f.body, nil
}
