package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ssync/internal/obs"
)

// The router's half of the distributed-trace read path. A routed
// request leaves spans in two recorders: the router's (edge, key
// resolution, forward attempts) and the serving replica's (admission,
// passes, cache tiers), joined by a shared trace ID carried on the
// traceparent hop header. GET /v2/traces/<id> on the router fetches
// both halves and splices them: remote spans are re-based from the
// replica's origin onto the router's and tagged with the replica URL,
// so the client sees one tree whose replica root hangs under the
// router's forward span.

// traceFetchTimeout bounds the whole fan-out for one stitched lookup.
const traceFetchTimeout = 2 * time.Second

// handleTracesList serves GET /v2/traces from the router's own
// recorder. Listing is edge-local on purpose: the router records every
// routed request, so its summaries already cover fleet traffic; the
// full fleet detail for one trace comes from the stitched lookup.
func (r *Router) handleTracesList(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": r.rec.List(obs.ParseTraceQuery(req.URL.Query())),
	})
}

// handleTraceGet serves GET /v2/traces/{id}, stitched fleet-wide.
func (r *Router) handleTraceGet(w http.ResponseWriter, req *http.Request, id string) {
	if !obs.IsTraceID(id) {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	doc, ok := r.stitch(req.Context(), id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// stitch assembles the fleet-wide view of one trace: the router's own
// record as the base, plus every replica's spans for the same trace ID,
// re-based and process-tagged. When the router itself has no record
// (evicted, or the request never passed this edge) the first replica
// document found becomes the base instead.
func (r *Router) stitch(ctx context.Context, id string) (obs.TraceDoc, bool) {
	var base obs.TraceDoc
	haveBase := false
	if rec, ok := r.rec.Get(id); ok {
		base = rec.Document()
		haveBase = true
	}

	remote := r.fetchRemote(ctx, id)
	for _, rd := range remote {
		if !haveBase {
			// No router-side record: promote the first replica document,
			// keeping its spans tagged with the process that recorded them.
			base = rd.doc
			for i := range base.Spans {
				base.Spans[i].Process = rd.shard
			}
			haveBase = true
			continue
		}
		// Replica span offsets are relative to the replica's own origin;
		// shift them onto the base origin so the merged timeline is
		// coherent. Same-host clock skew is negligible; across hosts the
		// tree structure stays exact even if offsets drift slightly.
		delta := rd.doc.Origin.Sub(base.Origin).Seconds() * 1000
		for _, sp := range rd.doc.Spans {
			sp.StartMs += delta
			sp.Process = rd.shard
			base.Spans = append(base.Spans, sp)
		}
		base.SpansDropped += rd.doc.SpansDropped
	}
	return base, haveBase
}

type remoteTrace struct {
	shard string
	doc   obs.TraceDoc
}

// fetchRemote asks every shard for its half of the trace, in parallel.
// Errors and 404s are simply absent results — a replica that never
// served the request has nothing to contribute.
func (r *Router) fetchRemote(ctx context.Context, id string) []remoteTrace {
	ctx, cancel := context.WithTimeout(ctx, traceFetchTimeout)
	defer cancel()
	results := make([]*obs.TraceDoc, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			doc, err := r.fetchTrace(ctx, url, id)
			if err != nil {
				return
			}
			results[i] = doc
		}(i, s.url)
	}
	wg.Wait()
	var out []remoteTrace
	for i, doc := range results {
		if doc != nil {
			out = append(out, remoteTrace{shard: r.shards[i].url, doc: *doc})
		}
	}
	return out
}

func (r *Router) fetchTrace(ctx context.Context, shardURL, id string) (*obs.TraceDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shardURL+"/v2/traces/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: shard %s: trace lookup status %d", shardURL, resp.StatusCode)
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(io.LimitReader(resp.Body, r.maxBody)).Decode(&doc); err != nil {
		return nil, err
	}
	if doc.TraceID != id {
		return nil, fmt.Errorf("cluster: shard %s returned trace %q for %q", shardURL, doc.TraceID, id)
	}
	return &doc, nil
}
