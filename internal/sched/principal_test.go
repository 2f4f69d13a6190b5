package sched

import (
	"context"
	"testing"
	"time"

	"ssync/internal/obs"
)

func TestWeakerAndRank(t *testing.T) {
	cases := []struct{ a, b, want Class }{
		{Interactive, Batch, Batch},
		{Batch, Interactive, Batch},
		{Interactive, Background, Background},
		{Batch, Background, Background},
		{Interactive, Interactive, Interactive},
		{"", Batch, Batch},      // zero value ranks as interactive
		{"", "", Interactive},   // and normalizes to the canonical name
		{"bogus", Batch, Batch}, // unknown class yields the other operand
		{Interactive, "bogus", Interactive},
	}
	for _, c := range cases {
		if got := Weaker(c.a, c.b); got != c.want {
			t.Errorf("Weaker(%q, %q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
	if r, ok := Rank(Interactive); !ok || r != 0 {
		t.Fatalf("Rank(interactive) = %d, %v", r, ok)
	}
	if r, ok := Rank(Background); !ok || r != 2 {
		t.Fatalf("Rank(background) = %d, %v", r, ok)
	}
	if _, ok := Rank("bogus"); ok {
		t.Fatal("Rank should reject unknown classes")
	}
}

func TestPerPrincipalAccounting(t *testing.T) {
	s := New(Config{Slots: 1, QueueLimit: 1})
	actx := obs.WithPrincipalName(context.Background(), "alice")
	bctx := obs.WithPrincipalName(context.Background(), "bob")

	relA, err := s.Acquire(actx, Interactive)
	if err != nil {
		t.Fatal(err)
	}
	// bob fills batch's queue slot, then sheds on the next arrival.
	shortCtx, cancel := context.WithTimeout(bctx, 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		rel, err := s.Acquire(shortCtx, Batch)
		if err == nil {
			rel()
		}
		done <- err
	}()
	waitFor(t, "bob queued", func() bool { return s.Stats().Queued == 1 })
	if _, err := s.Acquire(bctx, Batch); err == nil {
		t.Fatal("second queued batch acquire should shed (queue limit 1)")
	}

	relA()
	if err := <-done; err != nil {
		t.Fatalf("queued bob acquire should be granted after release: %v", err)
	}

	st := s.Stats()
	if len(st.Principals) != 2 {
		t.Fatalf("want 2 principals, got %+v", st.Principals)
	}
	alice, bob := st.Principals[0], st.Principals[1]
	if alice.Name != "alice" || alice.Admitted != 1 || alice.Shed != 0 || alice.InFlight != 0 {
		t.Fatalf("alice counters: %+v", alice)
	}
	if bob.Name != "bob" || bob.Admitted != 1 || bob.Shed != 1 || bob.InFlight != 0 {
		t.Fatalf("bob counters: %+v", bob)
	}
}

func TestUnattributedRequestsNotAccounted(t *testing.T) {
	s := New(Config{Slots: 1})
	rel, err := s.Acquire(context.Background(), Interactive)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if st := s.Stats(); len(st.Principals) != 0 {
		t.Fatalf("unattributed requests should not grow the principal map: %+v", st.Principals)
	}
}
