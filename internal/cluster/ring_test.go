package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func testKey(i int) Key {
	return sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
}

// TestRingDeterministic: the same names produce the same preference
// order for every key across independently built rings — the property
// that lets any router (or a restarted one) agree on key placement.
func TestRingDeterministic(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(names)
	r2 := newRing(names)
	for i := 0; i < 200; i++ {
		k := testKey(i)
		o1, o2 := r1.order(k), r2.order(k)
		if len(o1) != len(names) || len(o2) != len(names) {
			t.Fatalf("key %d: order lengths %d/%d, want %d", i, len(o1), len(o2), len(names))
		}
		for j := range o1 {
			if o1[j] != o2[j] {
				t.Fatalf("key %d: rings disagree: %v vs %v", i, o1, o2)
			}
		}
	}
}

// TestRingOrderCoversAllShards: every shard appears exactly once in a
// key's preference order.
func TestRingOrderCoversAllShards(t *testing.T) {
	r := newRing([]string{"a", "b", "c", "d"})
	for i := 0; i < 100; i++ {
		seen := map[int]bool{}
		for _, s := range r.order(testKey(i)) {
			if seen[s] {
				t.Fatalf("key %d: shard %d listed twice", i, s)
			}
			seen[s] = true
		}
		if len(seen) != 4 {
			t.Fatalf("key %d: order covers %d shards, want 4", i, len(seen))
		}
	}
}

// TestRingBalance: with the ring's vnodes, home-shard assignment over many
// keys is roughly uniform — no shard owns more than twice its fair
// share.
func TestRingBalance(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(names)
	const keys = 3000
	counts := make([]int, len(names))
	for i := 0; i < keys; i++ {
		counts[r.order(testKey(i))[0]]++
	}
	fair := keys / len(names)
	for i, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Fatalf("shard %d owns %d of %d keys (fair share %d): %v", i, c, keys, fair, counts)
		}
	}
}

// TestRingStableUnderShardLoss: removing one shard from a three-shard
// ring leaves every other key's home unchanged — only the lost shard's
// keys move, and they move to what was their second choice.
func TestRingStableUnderShardLoss(t *testing.T) {
	full := newRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	// Same names minus the last; surviving indexes align (0→a, 1→b).
	reduced := newRing([]string{"http://a:1", "http://b:1"})
	moved := 0
	for i := 0; i < 1000; i++ {
		k := testKey(i)
		fo, ro := full.order(k), reduced.order(k)
		if fo[0] == 2 {
			moved++
			// The key's new home must be its old second choice.
			if ro[0] != fo[1] {
				t.Fatalf("key %d: moved to shard %d, want old second choice %d", i, ro[0], fo[1])
			}
			continue
		}
		if ro[0] != fo[0] {
			t.Fatalf("key %d: home moved from %d to %d though its shard survived", i, fo[0], ro[0])
		}
	}
	if moved == 0 {
		t.Fatal("no keys homed on the removed shard; distribution is degenerate")
	}
}
