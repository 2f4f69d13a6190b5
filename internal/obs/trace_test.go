package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceIDsAndRoot(t *testing.T) {
	tr := NewTrace()
	if !IsTraceID(tr.ID()) {
		t.Fatalf("trace ID %q is not 32 lowercase hex", tr.ID())
	}
	root := tr.NewSpanID()
	if len(root) != 16 {
		t.Fatalf("span ID %q is not 16 hex", root)
	}
	tr.SetRoot(root)
	start := time.Now()
	tr.Record("", "", "unparented", start, time.Millisecond, nil)
	child := tr.Child(root, "child", start, time.Millisecond)
	tr.Record(root, "", "http /v2/compile", start, 2*time.Millisecond, nil)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["unparented"].Parent != root {
		t.Errorf("span recorded without a parent has parent %q, want root %q", byName["unparented"].Parent, root)
	}
	if byName["child"].ID != child || byName["child"].Parent != root {
		t.Errorf("child span = %+v, want id %q parent %q", byName["child"], child, root)
	}
	if byName["http /v2/compile"].Parent != "" {
		t.Errorf("root span parent = %q, want empty", byName["http /v2/compile"].Parent)
	}
}

func TestContinueTraceParentsRootRemotely(t *testing.T) {
	tr := ContinueTrace(strings.Repeat("ab", 16), strings.Repeat("cd", 8))
	if tr.ID() != strings.Repeat("ab", 16) {
		t.Fatalf("continued trace kept ID %q", tr.ID())
	}
	if tr.RemoteParent() != strings.Repeat("cd", 8) {
		t.Fatalf("remote parent = %q", tr.RemoteParent())
	}
	root := tr.NewSpanID()
	tr.SetRoot(root)
	tr.Record(root, tr.RemoteParent(), "http /v2/compile", time.Now(), time.Millisecond, nil)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Parent != strings.Repeat("cd", 8) {
		t.Fatalf("root span should parent to the remote span: %+v", spans)
	}
}

func TestTraceSpanCapCountsDropped(t *testing.T) {
	tr := NewTrace()
	observed := map[string]int{}
	ObserveSpans(tr, func(sp Span) { observed[sp.Name]++ })
	root := tr.NewSpanID()
	tr.SetRoot(root)
	start := time.Now()
	for i := 0; i < maxTraceSpans+50; i++ {
		tr.Record("", "", "s", start, time.Microsecond, nil)
	}
	// The root span must survive the cap.
	tr.Record(root, "", "root", start, time.Millisecond, nil)
	if got := len(tr.Spans()); got != maxTraceSpans+1 {
		t.Errorf("spans = %d, want cap %d + root", got, maxTraceSpans)
	}
	if tr.Dropped() != 50 {
		t.Errorf("dropped = %d, want 50", tr.Dropped())
	}
	// The observer sees every span, dropped ones included.
	if observed["s"] != maxTraceSpans+50 || observed["root"] != 1 {
		t.Errorf("observer saw %v, want %d spans named s and 1 root", observed, maxTraceSpans+50)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != "" || tr.NewSpanID() != "" {
		t.Fatal("nil trace accessors should return zero values")
	}
	tr.SetRoot("x")
	tr.Record("", "", "b", time.Now(), 0, nil)
	if tr.Child("", "c", time.Now(), 0) != "" {
		t.Fatal("nil Child should return empty ID")
	}
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace should have no spans")
	}
}

func TestWithSpanThreadsParent(t *testing.T) {
	ctx := WithSpan(context.Background(), "deadbeefdeadbeef")
	if SpanID(ctx) != "deadbeefdeadbeef" {
		t.Fatalf("SpanID = %q", SpanID(ctx))
	}
	if SpanID(context.Background()) != "" {
		t.Fatal("SpanID on a bare context should be empty")
	}
}

func TestParseTraceparent(t *testing.T) {
	traceID := strings.Repeat("ab", 16)
	spanID := strings.Repeat("cd", 8)
	good := "00-" + traceID + "-" + spanID + "-01"
	if tid, sid, ok := ParseTraceparent(good); !ok || tid != traceID || sid != spanID {
		t.Fatalf("valid traceparent rejected: %q -> %q %q %v", good, tid, sid, ok)
	}
	if rt := FormatTraceparent(traceID, spanID); rt != good {
		t.Fatalf("FormatTraceparent = %q, want %q", rt, good)
	}

	bad := []string{
		"",
		"garbage",
		"00-" + traceID + "-" + spanID,         // missing flags
		"01-" + traceID + "-" + spanID + "-01", // wrong version
		"00-" + strings.ToUpper(traceID) + "-" + spanID + "-01", // uppercase
		"00-" + strings.Repeat("0", 32) + "-" + spanID + "-01",  // zero trace ID
		"00-" + traceID + "-" + strings.Repeat("0", 16) + "-01", // zero span ID
		"00-" + traceID + "x-" + spanID + "-0",                  // shifted separators
		good + "extra",                                          // overlong
		"00-" + traceID[:31] + "g-" + spanID + "-01",            // non-hex
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("malformed traceparent accepted: %q", h)
		}
	}
}

func TestIsTraceID(t *testing.T) {
	if !IsTraceID(strings.Repeat("0a", 16)) {
		t.Fatal("valid trace ID rejected")
	}
	for _, s := range []string{"", "short", strings.Repeat("0a", 17), strings.Repeat("0A", 16), strings.Repeat("zz", 16)} {
		if IsTraceID(s) {
			t.Errorf("IsTraceID(%q) = true", s)
		}
	}
}

func TestRenderTree(t *testing.T) {
	doc := TraceDoc{Spans: []SpanDoc{
		{ID: "a", Name: "http /v2/compile", StartMs: 0, DurMs: 10},
		{ID: "b", Parent: "a", Name: "compile", StartMs: 1, DurMs: 8},
		{ID: "c", Parent: "b", Name: "pass:place", StartMs: 2, DurMs: 3, Process: "http://replica1"},
		{ID: "d", Parent: "missing", Name: "orphan", StartMs: 4, DurMs: 1},
	}}
	out := doc.RenderTree()
	for _, want := range []string{"http /v2/compile", "  compile", "    pass:place @http://replica1", "orphan"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree missing %q:\n%s", want, out)
		}
	}
}
