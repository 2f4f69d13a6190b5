package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ssync/internal/pass"
)

// requestTimeout bounds one HTTP exchange; ssyncd's own compile timeout
// (a minute by default) fires first.
const requestTimeout = 2 * time.Minute

// client sends a workload's requests over at most conns connections.
type client struct {
	hc     *http.Client
	apiKey string
}

func newClient(conns int, apiKey string) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, apiKey: apiKey}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends r to base and reads the whole answer.
func (c *client) post(ctx context.Context, base string, r *request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// get fetches url, failing on any status but 200.
func (c *client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// outcome is what happened to one sent request; offsets count from the
// start of its phase.
type outcome struct {
	Sched, Sent, Done time.Duration
	Status            int
	body              []byte
	err               error // transport failure
	// Entries holds the checked answers, one per wire entry; nil until
	// check passes.
	Entries []entryResult
}

// latency runs from the scheduled send to the full answer.
func (o *outcome) latency() time.Duration { return o.Done - o.Sched }

// send posts r and records its outcome.
func (c *client) send(ctx context.Context, base string, r *request, start time.Time, sched time.Duration) *outcome {
	o := &outcome{Sched: sched, Sent: time.Since(start)}
	o.Status, o.body, o.err = c.post(ctx, base, r)
	o.Done = time.Since(start)
	return o
}

// closedLoop sends reqs in list order from conns workers, each sending
// its next request as soon as its previous answer arrived, until d has
// passed (d <= 0: until the list is done). Outcomes are index-aligned
// with reqs, nil for requests never sent; elapsed runs to the last
// answer.
func closedLoop(ctx context.Context, c *client, base string, reqs []*request, conns int, d time.Duration) (outs []*outcome, elapsed time.Duration) {
	outs = make([]*outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				now := time.Since(start)
				if d > 0 && now >= d {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				outs[i] = c.send(ctx, base, reqs[i], start, now)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// openLoop sends every request at its scheduled offset whatever the
// fleet's pace, over conns connections. A request waiting for a free
// connection keeps its scheduled time, so its latency counts the wait.
func openLoop(ctx context.Context, c *client, base string, reqs []*request, conns int) (outs []*outcome, elapsed time.Duration) {
	outs = make([]*outcome, len(reqs))
	due := make(chan int, len(reqs)) // one slot per request: the schedule never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				outs[i] = c.send(ctx, base, reqs[i], start, reqs[i].At)
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i, r := range reqs {
		if wait := r.At - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return outs, time.Since(start)
}

// answer is the part of a /v2 compile answer the checks read; pointer
// fields tell a missing field from a zero.
type answer struct {
	Label       string   `json:"label"`
	Topology    string   `json:"topology"`
	Qubits      int      `json:"qubits"`
	Shuttles    *int     `json:"shuttles"`
	Swaps       *int     `json:"swaps"`
	SuccessRate *float64 `json:"success_rate"`
	ExecTimeUs  *float64 `json:"exec_time_us"`
	Key         string   `json:"key"`
	Pipeline    []string `json:"pipeline"`
	Error       string   `json:"error"`
}

type batchAnswer struct {
	Results []answer `json:"results"`
	Errors  *int     `json:"errors"`
}

// entryResult is what the checks compare across answers for one key:
// the key and the paper's schedule-quality tuple.
type entryResult struct {
	Key         string  `json:"key"`
	Shuttles    int     `json:"shuttles"`
	Swaps       int     `json:"swaps"`
	SuccessRate float64 `json:"success_rate"`
	ExecTimeUs  float64 `json:"exec_time_us"`
}

// check validates one outcome of r: delivered, status 200, the answer
// schema, and a verify-statevec stage wherever the request asked for
// one. It fills o.Entries when all pass.
func check(r *request, o *outcome) error {
	switch {
	case o == nil:
		return errors.New("never sent")
	case o.err != nil:
		return o.err
	case o.Status != http.StatusOK:
		return fmt.Errorf("status %d: %s", o.Status, snippet(o.body))
	}
	var answers []answer
	if r.Path == batchPath {
		var b batchAnswer
		if err := json.Unmarshal(o.body, &b); err != nil {
			return fmt.Errorf("batch answer: %w", err)
		}
		if b.Errors == nil || *b.Errors != 0 {
			return fmt.Errorf("batch reports failed entries: %s", snippet(o.body))
		}
		answers = b.Results
	} else {
		var a answer
		if err := json.Unmarshal(o.body, &a); err != nil {
			return fmt.Errorf("compile answer: %w", err)
		}
		answers = []answer{a}
	}
	if len(answers) != len(r.Entries) {
		return fmt.Errorf("%d answers for %d entries", len(answers), len(r.Entries))
	}
	entries := make([]entryResult, len(answers))
	for i, a := range answers {
		e, err := checkEntry(r.Entries[i], a)
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		entries[i] = e
	}
	o.Entries, o.body = entries, nil
	return nil
}

func checkEntry(w wireRequest, a answer) (entryResult, error) {
	switch {
	case a.Error != "":
		return entryResult{}, fmt.Errorf("error %q", a.Error)
	case a.Shuttles == nil || a.Swaps == nil || a.SuccessRate == nil || a.ExecTimeUs == nil:
		return entryResult{}, errors.New("answer lacks shuttles, swaps, success_rate or exec_time_us")
	case !isKey(a.Key):
		return entryResult{}, fmt.Errorf("malformed key %q", a.Key)
	case a.Topology != w.Topology:
		return entryResult{}, fmt.Errorf("topology %q, asked for %q", a.Topology, w.Topology)
	case a.Label != w.Label:
		return entryResult{}, fmt.Errorf("label %q, sent %q", a.Label, w.Label)
	case a.Qubits <= 0 || *a.Shuttles < 0 || *a.Swaps < 0:
		return entryResult{}, errors.New("missing or negative counts")
	case !(*a.SuccessRate >= 0 && *a.SuccessRate <= 1):
		return entryResult{}, fmt.Errorf("success_rate %v outside [0,1]", *a.SuccessRate)
	case !(*a.ExecTimeUs > 0):
		return entryResult{}, fmt.Errorf("exec_time_us %v not positive", *a.ExecTimeUs)
	}
	if wantsVerify(w) && !slices.Contains(a.Pipeline, pass.VerifyStatevec) {
		return entryResult{}, errors.New("the executed pipeline lacks verify-statevec")
	}
	return entryResult{
		Key: a.Key, Shuttles: *a.Shuttles, Swaps: *a.Swaps,
		SuccessRate: *a.SuccessRate, ExecTimeUs: *a.ExecTimeUs,
	}, nil
}

func wantsVerify(w wireRequest) bool {
	return slices.ContainsFunc(w.Pipeline, func(s passSpec) bool { return s.Name == pass.VerifyStatevec })
}

// isKey reports whether s is a lowercase hex sha256.
func isKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// snippet shortens a body for an error message.
func snippet(b []byte) string {
	const n = 200
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
