package selection

import (
	"context"
	"sync"
	"sync/atomic"
)

// sweepPool is the persistent worker pool behind one algorithm run's
// parallel sweeps. Before the pool, every parallel sweep spawned (and
// joined) its own goroutines, which taxed each round with scheduler
// churn — enough to make small-round parallel runs lose to sequential
// ones (the Greedy/parallel+incr inversion of an early multi-core bench
// profile). The pool starts its helpers lazily on the first sweep large
// enough to fan out, reuses them for every subsequent sweep of the run,
// and is shut down by evaluator.close when the run finishes or is
// canceled.
//
// Dispatch model: a sweep publishes one sweepJob and enqueues it once per
// helper; helpers and the calling goroutine all pull move indices off the
// job's shared atomic cursor (dynamic index dealing, so expensive moves
// don't stall a fixed partition). The caller participates in the loop
// itself, so a pool of w workers runs w-way even though only w−1
// goroutines exist.
type sweepPool struct {
	// workers is the total fan-out including the calling goroutine.
	workers int
	work    chan *sweepJob
	quit    chan struct{}
	started bool
}

// sweepJob is one fanned sweep: eval(i) for every i in [0, m) dealt off
// the cursor. A canceled ctx stops index dealing early; indices already
// dealt still complete.
type sweepJob struct {
	m    int
	next atomic.Int64
	eval func(i int)
	ctx  context.Context
	wg   sync.WaitGroup
}

// run deals indices until the cursor passes m or ctx fires.
func (j *sweepJob) run() {
	for {
		if j.ctx != nil && j.ctx.Err() != nil {
			return
		}
		i := int(j.next.Add(1)) - 1
		if i >= j.m {
			return
		}
		j.eval(i)
	}
}

func newSweepPool(workers int) *sweepPool {
	return &sweepPool{workers: workers}
}

// start spawns the helper goroutines once; subsequent calls are no-ops.
// Helpers block on the work channel between sweeps and exit when close
// fires quit.
func (p *sweepPool) start() {
	if p.started {
		return
	}
	p.started = true
	p.work = make(chan *sweepJob, p.workers-1)
	p.quit = make(chan struct{})
	for k := 0; k < p.workers-1; k++ {
		go func() {
			for {
				select {
				case <-p.quit:
					return
				case j := <-p.work:
					j.run()
					j.wg.Done()
				}
			}
		}()
	}
}

// run fans eval across the pool, blocking until every index in [0, m) has
// been evaluated (or ctx fired mid-sweep, leaving later indices
// unevaluated). Only the owning goroutine may call run; sweeps never
// overlap within a run.
func (p *sweepPool) run(m int, ctx context.Context, eval func(i int)) {
	p.start()
	job := &sweepJob{m: m, eval: eval, ctx: ctx}
	helpers := p.workers - 1
	if helpers > m-1 {
		helpers = m - 1
	}
	job.wg.Add(helpers)
	for k := 0; k < helpers; k++ {
		p.work <- job
	}
	job.run()
	job.wg.Wait()
}

// close stops the helpers. Safe to call on a never-started pool and
// idempotent; the pool cannot be reused afterwards.
func (p *sweepPool) close() {
	if p == nil || !p.started {
		return
	}
	p.started = false
	close(p.quit)
}
