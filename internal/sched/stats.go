package sched

import (
	"sort"
	"time"
)

// PrincipalStats is one principal's admission accounting, attributed
// from the principal name the auth layer put on the request context
// (obs.PrincipalName). Unattributed requests are not counted here.
type PrincipalStats struct {
	// Name is the principal (or "overflow" past the cardinality cap).
	Name string
	// Admitted counts slot acquisitions.
	Admitted uint64
	// Shed counts admission rejections (queue full or deadline).
	Shed uint64
	// InFlight is the number of slots currently held.
	InFlight int
}

// ClassStats is one priority class's point-in-time counters.
type ClassStats struct {
	// Class names the priority class.
	Class Class
	// Weight is the class's slot-handoff weight.
	Weight int
	// QueueLimit is the class's configured queue bound (negative:
	// unbounded).
	QueueLimit int
	// Depth is the current queue depth.
	Depth int
	// Admitted counts requests that acquired a slot (immediately or after
	// queueing).
	Admitted uint64
	// ShedQueueFull counts arrivals rejected because the queue was full.
	ShedQueueFull uint64
	// ShedDeadline counts arrivals rejected because the queue-wait
	// estimate already exceeded their deadline.
	ShedDeadline uint64
	// Abandoned counts waiters whose context was cancelled or expired
	// while queued — including the rare grant that raced a cancellation
	// and was handed back (such a grant is never counted as admitted).
	Abandoned uint64
	// Waited counts slot handoffs to queued waiters; queue-time
	// telemetry below is recorded over these. Admissions that acquired a
	// free slot on arrival never queue, so Admitted exceeds the accepted
	// subset of Waited by exactly that immediate count.
	Waited uint64
	// TotalWait is the cumulative queue time across Waited handoffs.
	TotalWait time.Duration
	// MaxWait is the longest single queue wait.
	MaxWait time.Duration
}

// Shed is the class's total load-shed count.
func (c ClassStats) Shed() uint64 { return c.ShedQueueFull + c.ShedDeadline }

// AvgWait is the mean queue time of admissions that actually queued.
func (c ClassStats) AvgWait() time.Duration {
	if c.Waited == 0 {
		return 0
	}
	return c.TotalWait / time.Duration(c.Waited)
}

// Stats is a point-in-time snapshot of the scheduler, taken under one
// lock so the per-class rows and the top-level gauges are mutually
// consistent.
type Stats struct {
	// Slots is the worker-slot budget.
	Slots int
	// Busy is the number of slots currently held.
	Busy int
	// Queued is the total queue depth across classes.
	Queued int
	// AvgService is the EWMA of observed slot-hold durations — the basis
	// of admission-control wait estimates; zero until the first release.
	AvgService time.Duration
	// Classes reports per-class counters in canonical order
	// (interactive, batch, background).
	Classes [NumClasses]ClassStats
	// Principals reports per-principal admission accounting, sorted by
	// name; empty when no request ever carried a principal. Cardinality
	// is bounded by the auth layer's registry (plus one overflow
	// bucket), so metrics exporters may label by Name.
	Principals []PrincipalStats
}

// Stats snapshots the scheduler under one lock.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{Slots: s.slots, Busy: s.busy, AvgService: s.avgService}
	for i := range s.classes {
		c := &s.classes[i]
		out.Queued += len(c.queue)
		out.Classes[i] = ClassStats{
			Class:         Classes[i],
			Weight:        classWeights[i],
			QueueLimit:    s.queueLimit,
			Depth:         len(c.queue),
			Admitted:      c.admitted,
			ShedQueueFull: c.shedQueueFull,
			ShedDeadline:  c.shedDeadline,
			Abandoned:     c.abandoned,
			Waited:        c.waited,
			TotalWait:     c.totalWait,
			MaxWait:       c.maxWait,
		}
	}
	if len(s.principals) > 0 {
		out.Principals = make([]PrincipalStats, 0, len(s.principals))
		for name, pc := range s.principals {
			out.Principals = append(out.Principals, PrincipalStats{
				Name:     name,
				Admitted: pc.admitted,
				Shed:     pc.shed,
				InFlight: pc.inflight,
			})
		}
		sort.Slice(out.Principals, func(i, j int) bool {
			return out.Principals[i].Name < out.Principals[j].Name
		})
	}
	return out
}
