package engine

import (
	"context"
	"reflect"
	"testing"

	"ssync/internal/core"
	"ssync/internal/pass"
)

// TestSnapshotResumeMatchesFullRun proves the contract per-stage caching
// rests on: running decompose+place, capturing, restoring for another
// request of the same key, and running the remaining stage produces
// exactly the schedule a straight full run produces.
func TestSnapshotResumeMatchesFullRun(t *testing.T) {
	x, err := resolveExec(testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := pass.Run(ctx, x.passes, newState(testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)))
	if err != nil {
		t.Fatal(err)
	}

	// Run only decompose+place, capturing at each boundary.
	partial := newState(testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync))
	var snaps []*snapshot
	for i := 0; i < 2; i++ {
		if err := x.passes[i].Run(ctx, partial); err != nil {
			t.Fatal(err)
		}
		partial.Timings = append(partial.Timings, core.PassTiming{Pass: x.passes[i].Name()})
		snap, ok := capture(partial)
		if !ok {
			t.Fatalf("boundary after stage %d not snapshotable", i)
		}
		snaps = append(snaps, snap)
	}

	req := testRequest(t, "QFT_12", "G-2x2", 8, CompilerSSync)
	st, err := snaps[1].restore(req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Circuit != partial.Circuit {
		t.Error("restore did not share the captured working circuit")
	}
	if st.Source != req.Circuit {
		t.Error("restored state's source is not the request's circuit")
	}
	if st.Placement == nil {
		t.Fatal("restored state lost its placement")
	}
	if st.Placement == partial.Placement || st.Placement.Topology() != req.Topo {
		t.Error("restored placement is not a fresh one on the request's topology")
	}
	if got, want := st.Placement.Permutation(), partial.Placement.Permutation(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored placement %v != captured %v", got, want)
	}
	got, err := pass.RunFrom(ctx, x.passes, st, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Schedule, want.Schedule) {
		t.Errorf("resumed schedule differs from full run (%d vs %d ops)",
			len(got.Schedule.Ops), len(want.Schedule.Ops))
	}
	if got.Counts != want.Counts {
		t.Errorf("resumed counts %+v != full-run %+v", got.Counts, want.Counts)
	}
	if len(got.PassTimings) != len(want.PassTimings) {
		t.Errorf("resumed run reports %d pass timings, want %d (restored stages replayed)",
			len(got.PassTimings), len(want.PassTimings))
	}
	if len(snaps[1].timings) != 2 {
		t.Errorf("resume appended into the snapshot's timings (%d entries, want 2)", len(snaps[1].timings))
	}
}

// TestCaptureRefusesResultStates pins the snapshot boundary rule: once a
// routing pass has produced a Result, the boundary belongs to the result
// cache, not the stage cache.
func TestCaptureRefusesResultStates(t *testing.T) {
	req := testRequest(t, "BV_12", "G-2x2", 8, CompilerSSync)
	x, err := resolveExec(req)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(req)
	if _, err := pass.Run(context.Background(), x.passes, st); err != nil {
		t.Fatal(err)
	}
	if _, ok := capture(st); ok {
		t.Fatal("captured a state that already carries a Result")
	}
}

// TestSnapshotBeforePlacement covers the decompose-only boundary: no
// placement yet, the working circuit alone carries over.
func TestSnapshotBeforePlacement(t *testing.T) {
	req := testRequest(t, "Adder_4", "G-2x2", 8, CompilerSSync)
	st := newState(req)
	st.Circuit = st.Circuit.DecomposeToBasis()
	snap, ok := capture(st)
	if !ok {
		t.Fatal("pre-placement boundary not snapshotable")
	}
	if snap.slots != nil {
		t.Fatal("snapshot invented a placement")
	}
	restored, err := snap.restore(req)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Placement != nil {
		t.Fatal("restore invented a placement")
	}
	if restored.Circuit != st.Circuit {
		t.Error("restore did not carry the decomposed working circuit")
	}
}
