package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ssync/internal/core"
	"ssync/internal/sched"
)

// flight is one in-progress compilation that concurrent identical
// requests attach to instead of compiling again.
type flight struct {
	done chan struct{} // closed after res/err are final
	res  *core.Result
	err  error
	// waiters counts callers that attached to this flight; guarded by the
	// owning group's mutex. Tests poll it to sequence concurrency
	// deterministically.
	waiters int
}

// flightGroup coalesces concurrent work per key: the first caller for a
// key becomes the leader and runs fn; every caller arriving before the
// leader finishes waits for the leader's outcome instead of duplicating
// the work. Unlike the result cache — which only serves *finished*
// compilations — this deduplicates work that is still running.
type flightGroup struct {
	mu sync.Mutex
	m  map[Key]*flight
}

// do returns fn's result for key, running it at most once across all
// concurrent callers. joined reports whether this caller waited on
// another caller's execution rather than running fn itself.
//
// The leader runs fn under its own ctx; fn is responsible for any
// publication that must happen before waiters can race a fresh miss
// (the engine caches the result inside fn for exactly that reason — the
// flight is deregistered only after fn returns, so between cache put and
// deregistration no second compilation can start). A waiter whose leader
// failed with a *per-request* outcome — the leader's own cancellation or
// deadline, or an admission-control shed of the leader's priority
// class/deadline (sched.Shed) — retries with its own still-live ctx
// instead of inheriting an error that says nothing about its own budget
// or class: priorities and deadlines are deliberately outside the
// coalescing key, so an interactive follower must not report 429
// because a batch leader's queue was full.
func (g *flightGroup) do(ctx context.Context, key Key, fn func() (*core.Result, error)) (res *core.Result, err error, joined bool) {
	for {
		g.mu.Lock()
		if g.m == nil {
			g.m = make(map[Key]*flight)
		}
		if f, ok := g.m[key]; ok {
			f.waiters++
			g.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil && ctx.Err() == nil && (isContextError(f.err) || sched.Shed(f.err)) {
					// The leader ran out of *its* time, or was shed by
					// *its* class queue or deadline — not ours: retry.
					continue
				}
				return f.res, f.err, true
			case <-ctx.Done():
				// Our own budget expired before the flight landed: the
				// outcome is ours, not the flight's, so this does not
				// count as a coalesced serve.
				return nil, ctx.Err(), false
			}
		}
		f := &flight{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()

		g.lead(f, key, fn)
		return f.res, f.err, false
	}
}

// lead runs fn as the flight's leader. Deregistration and the done
// broadcast happen under defer so that a panicking pass (registered
// passes are arbitrary plugin code) cannot poison the key forever:
// waiters receive an error instead of blocking on a flight that will
// never land, and the panic still propagates to the leader's caller.
func (g *flightGroup) lead(f *flight, key Key, fn func() (*core.Result, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.res, f.err = nil, fmt.Errorf("engine: compiler panicked: %v", r)
			g.land(f, key)
			panic(r)
		}
		g.land(f, key)
	}()
	f.res, f.err = fn()
}

// land deregisters a finished flight and wakes its waiters.
func (g *flightGroup) land(f *flight, key Key) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}

// waiting reports how many callers are attached to the in-progress
// flight for key (0 when none is in progress). Test hook.
func (g *flightGroup) waiting(key Key) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f.waiters
	}
	return 0
}

// isContextError reports whether err (anywhere in its chain) is a
// cancellation or deadline error.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
