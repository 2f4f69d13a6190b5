package exp

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestExperimentsGolden pins every experiment at quick scale: the text
// report of each name and, where one exists, its CSV, compared exactly
// against the checked-in golden. Wall-clock values are masked (see
// wallClockCSV and wallClockText); every other byte is pinned. Refactors
// must leave it unchanged; after an intended change, refresh it with:
//
//	go test ./internal/exp/ -run TestExperimentsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments.golden from the current experiments")

const experimentsGolden = "testdata/experiments.golden"

// wallClockCSV names, per experiment, the CSV column that holds a
// wall-clock time.
var wallClockCSV = map[string]string{
	"fig8":   "compile_time_s_concurrent",
	"fig9":   "compile_time_s_concurrent",
	"fig10":  "compile_time_s_concurrent",
	"fig15":  "compile_time_s",
	"passes": "time_ms",
}

// wallClockText gives, per experiment, the whitespace-separated field of
// each text-table row (after the title and column-header lines) that
// holds a wall-clock time.
var wallClockText = map[string]int{"fig15": 3, "passes": 3}

func TestExperimentsGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range registry {
		name := e.name
		text, err := Run(name, quick)
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		fmt.Fprintf(&b, "== %s text\n%s", name, maskText(t, name, text))
		out, err := RunCSV(name, quick)
		if name == "table1" {
			if err == nil {
				t.Errorf("table1 has a CSV form")
			}
			continue
		}
		if err != nil {
			t.Fatalf("RunCSV(%s): %v", name, err)
		}
		fmt.Fprintf(&b, "== %s csv\n%s", name, maskCSV(t, name, out))
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", experimentsGolden)
		return
	}
	want, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/exp/ -run TestExperimentsGolden -update`): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d changed:\n got  %q\n want %q", i+1, g, w)
		}
	}
}

// maskText replaces the wall-clock field of each table row with "*".
// Masked rows are re-joined with single spaces; other lines keep their
// bytes.
func maskText(t *testing.T, name, text string) string {
	t.Helper()
	field, ok := wallClockText[name]
	if !ok {
		return text
	}
	lines := strings.Split(text, "\n")
	for i := 2; i < len(lines); i++ {
		if lines[i] == "" {
			continue
		}
		f := strings.Fields(lines[i])
		if field >= len(f) {
			t.Fatalf("%s: row %q has no field %d", name, lines[i], field)
		}
		f[field] = "*"
		lines[i] = strings.Join(f, " ")
	}
	return strings.Join(lines, "\n")
}

// maskCSV replaces the wall-clock column's values with "*".
func maskCSV(t *testing.T, name, out string) string {
	t.Helper()
	column, ok := wallClockCSV[name]
	if !ok {
		return out
	}
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	col := -1
	for i, h := range records[0] {
		if h == column {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s: no %q column in %v", name, column, records[0])
	}
	for _, r := range records[1:] {
		r[col] = "*"
	}
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.WriteAll(records); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
