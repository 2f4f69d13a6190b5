package main

import (
	"sort"
	"time"
)

// span is one timed layer call of a replayed request. Spans form a tree
// through parent indexes; the root's parent is -1.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer records the spans of one replayed request from the benchmark's
// own code: begin/end pairs around each call into a layer, strictly
// nested because the replay runs on one goroutine. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// reset clears the tracer for the next request.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.spans, t.open = t.spans[:0], t.open[:0]
	t.origin = time.Now()
}

// selfTimes folds a span tree into self time per span name: each span's
// duration minus the part of its interval its direct children cover
// (overlapping children merged, children clipped to their parent). For a
// tree whose children lie inside their parents, the self times sum to
// the roots' total duration.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for i, s := range spans {
		out[s.name] += s.end - s.start - covered(s, spans, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of the kids'
// intervals covers.
func covered(parent span, spans []span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	for i := 0; i < len(iv); {
		a, b := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= b; i++ {
			b = max(b, iv[i][1])
		}
		total += b - a
	}
	return total
}

// rootTime sums the durations of the root spans.
func rootTime(spans []span) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.parent < 0 {
			total += s.end - s.start
		}
	}
	return total
}
