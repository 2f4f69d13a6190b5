package exp

import (
	"fmt"
	"strings"
	"testing"

	"ssync/internal/workloads"
)

// renderCells gives a byte-exact fingerprint of a cell slice with the
// wall-clock CompileTime field normalised away (it differs run to run by
// construction; every semantic field must match exactly).
func renderCells(cells []Cell) string {
	var b strings.Builder
	for _, c := range cells {
		c.CompileTime, c.res, c.topo = 0, nil, nil
		fmt.Fprintf(&b, "%+v\n", c)
	}
	return b.String()
}

// TestComparisonPoolMatchesSerialByteForByte: the runner on one worker
// and on the default pool produce the same grid, cell for cell.
func TestComparisonPoolMatchesSerialByteForByte(t *testing.T) {
	panels, variants := workloads.ComparisonPanels(true), compilerVariants(Compilers...)
	serial, err := compile(panels, variants, 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := compile(panels, variants, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pooled) != len(serial) {
		t.Fatalf("pool produced %d cells, serial %d", len(pooled), len(serial))
	}
	a, b := renderCells(serial), renderCells(pooled)
	if a != b {
		t.Errorf("pooled grid differs from serial grid:\nserial:\n%s\npooled:\n%s", a, b)
	}
}
