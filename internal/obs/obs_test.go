package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestLoggerContext(t *testing.T) {
	if Logger(context.Background()) != slog.Default() {
		t.Errorf("Logger(bare ctx) is not slog.Default()")
	}
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	ctx := WithLogger(context.Background(), l)
	if Logger(ctx) != l {
		t.Errorf("Logger did not round-trip through context")
	}
	Logger(ctx).Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "hello") {
		t.Errorf("log line missing: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"":        slog.LevelInfo,
		"debug":   slog.LevelDebug,
		"info":    slog.LevelInfo,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"error":   slog.LevelError,
		"DEBUG":   slog.LevelDebug,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Errorf("ParseLevel(verbose) succeeded")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	l.Info("m", "k", "v")
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("json log line does not parse: %v (%q)", err, buf.String())
	}
	if doc["msg"] != "m" || doc["k"] != "v" {
		t.Errorf("json line = %v", doc)
	}
	l.Debug("hidden")
	if strings.Contains(buf.String(), "hidden") {
		t.Errorf("debug line emitted at info level")
	}

	if _, err := NewLogger(&buf, "xml", slog.LevelInfo); err == nil {
		t.Errorf("NewLogger(xml) succeeded")
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace()
	base := tr.Origin()
	tr.Record("", "", "second", base.Add(10*time.Millisecond), 5*time.Millisecond, nil)
	tr.Record("", "", "first", base, 2*time.Millisecond, nil)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Spans come back ordered by start offset.
	if spans[0].Name != "first" || spans[1].Name != "second" {
		t.Errorf("span order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[0].Start != 0 || spans[1].Start != 10*time.Millisecond {
		t.Errorf("offsets = %v, %v", spans[0].Start, spans[1].Start)
	}
	if spans[1].Dur != 5*time.Millisecond {
		t.Errorf("dur = %v", spans[1].Dur)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Record("", "", "x", time.Now(), time.Millisecond, nil) // must not panic
	if got := tr.Spans(); got != nil {
		t.Errorf("nil trace spans = %v", got)
	}
	if TraceFrom(context.Background()) != nil {
		t.Errorf("TraceFrom(bare ctx) != nil")
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Errorf("trace did not round-trip through context")
	}
}
