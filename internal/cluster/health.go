package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Shard health states, exported on the ssync_cluster_shard_state gauge
// and in Stats.
const (
	// StateDown: consecutive health-check failures reached DownAfter;
	// traffic spills to the next shard on the ring while probes continue
	// with exponential backoff.
	StateDown int32 = iota
	// StateShedding: the replica answers but its admission queues are
	// near their bounds — new home traffic spills to the second choice
	// rather than queueing into a 429.
	StateShedding
	// StateUp: healthy and accepting load.
	StateUp
)

// shard is one replica behind the router.
type shard struct {
	url string
	// state is one of StateDown/StateShedding/StateUp; written by the
	// health poller (and optimistically at startup), read per request.
	state atomic.Int32
	// requests counts proxied requests this shard served; spills counts
	// requests that landed here because an earlier-preference shard was
	// down/shedding/erroring; errors counts forward attempts that failed
	// at the transport layer.
	requests atomic.Uint64
	spills   atomic.Uint64
	errors   atomic.Uint64
	// fails is the poller's consecutive-failure count (poller-goroutine
	// local, no atomics needed — kept here for Stats visibility).
	fails atomic.Int32
}

func (s *shard) healthy() bool  { return s.state.Load() != StateDown }
func (s *shard) shedding() bool { return s.state.Load() == StateShedding }

// statsProbe is the slice of the /v2/stats document the load signal
// reads: per-class admission-queue depth against its bound.
type statsProbe struct {
	Sched *struct {
		Queued  int `json:"queued"`
		Slots   int `json:"slots"`
		Classes map[string]struct {
			Depth      int `json:"depth"`
			QueueLimit int `json:"queue_limit"`
		} `json:"classes"`
	} `json:"sched"`
}

// probeShard fetches one replica's /v2/stats and classifies it: reachable
// and parsing → Up or Shedding by queue pressure; anything else is a
// failed probe.
func (r *Router) probeShard(ctx context.Context, s *shard) (int32, error) {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v2/stats", nil)
	if err != nil {
		return StateDown, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return StateDown, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return StateDown, fmt.Errorf("stats probe: status %d", resp.StatusCode)
	}
	var doc statsProbe
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return StateDown, fmt.Errorf("stats probe: %w", err)
	}
	if doc.Sched != nil {
		for _, c := range doc.Sched.Classes {
			// A class whose queue is at (or nearing) its admission bound
			// is about to shed with 429s; route new home traffic to the
			// second choice instead of feeding the queue.
			if c.QueueLimit > 0 && float64(c.Depth) >= spillDepthFraction*float64(c.QueueLimit) {
				return StateShedding, nil
			}
		}
	}
	return StateUp, nil
}

// pollShard is the per-shard health loop: probe every HealthInterval
// while the shard answers, mark it down after DownAfter consecutive
// failures, and back off exponentially (capped at 8× the interval)
// while it stays down so a dead replica costs probes, not load.
func (r *Router) pollShard(ctx context.Context, s *shard) {
	defer r.wg.Done()
	interval := r.healthInterval
	backoff := interval
	timer := time.NewTimer(0) // first probe immediately
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		state, err := r.probeShard(ctx, s)
		if err != nil {
			fails := s.fails.Add(1)
			if int(fails) >= r.downAfter {
				if s.state.Swap(StateDown) != StateDown {
					r.log.Warn("cluster: shard down", "shard", s.url, "err", err)
				}
				backoff *= 2
				if max := 8 * interval; backoff > max {
					backoff = max
				}
			}
			timer.Reset(backoff)
			continue
		}
		s.fails.Store(0)
		backoff = interval
		if prev := s.state.Swap(state); prev != state {
			switch state {
			case StateUp:
				r.log.Info("cluster: shard up", "shard", s.url)
			case StateShedding:
				r.log.Info("cluster: shard shedding, spilling new traffic", "shard", s.url)
			}
		}
		timer.Reset(interval)
	}
}
