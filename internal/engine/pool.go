package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"ssync/internal/sched"
)

// Pool fans a batch of requests across a fixed set of workers. Results
// come back in request order regardless of completion order, so a batch
// run is a drop-in replacement for the equivalent serial loop.
//
// A pool is throughput work by construction, so on a worker-bounded
// engine its requests default to the batch scheduling class: a large
// batch (or portfolio race) queues behind its class weight instead of
// monopolizing the engine's worker slots against interactive traffic.
// Individual requests may still set their own Priority, and Priority
// overrides the pool default for the whole run.
type Pool struct {
	// Engine executes (and caches) the requests; nil gets a fresh
	// cacheless engine per run.
	Engine *Engine
	// Workers is the concurrency bound; <= 0 selects GOMAXPROCS.
	Workers int
	// Timeout is the per-request default applied to requests whose own
	// Timeout is zero; 0 means unbounded.
	Timeout time.Duration
	// Priority is the scheduling class applied to requests whose own
	// Priority is unset; the zero value selects sched.Batch (not
	// interactive — see the type comment).
	Priority sched.Class
	// Deadline, when non-zero, is the absolute completion deadline
	// applied to requests whose own Deadline is zero — the whole batch
	// shares one budget, and deadline-aware admission may shed entries
	// that could no longer meet it.
	Deadline time.Time
}

// RunRequests handles every request through Engine.Do and returns one
// Response per request, index-aligned with the input. Cancelling ctx
// makes remaining requests fail fast with the context error;
// already-finished results are kept.
func (p *Pool) RunRequests(ctx context.Context, reqs []Request) []Response {
	eng := p.Engine
	if eng == nil {
		eng = New(Options{CacheSize: -1})
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	class := p.Priority
	if class == "" {
		class = sched.Batch
	}
	results := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				req := reqs[i]
				if req.Timeout == 0 {
					req.Timeout = p.Timeout
				}
				if req.Priority == "" {
					req.Priority = class
				}
				if req.Deadline.IsZero() {
					req.Deadline = p.Deadline
				}
				results[i] = eng.Do(ctx, req)
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// FirstError returns the lowest-index error in a batch of responses, or
// nil.
func FirstError(results []Response) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
