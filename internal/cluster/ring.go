// Package cluster is the horizontal scale-out layer over ssyncd: a
// consistent-hash router (Router) that fronts N replica daemons,
// hashing each request's engine cache key so identical circuits land on
// the same replica — keeping single-flight coalescing and the in-memory
// cache tiers effective — while health checks and per-replica load
// signals (the /v2/stats sched section) spill traffic to the
// second-choice shard when the home shard is shedding or down. The
// replicas share one disk cache tier (store.OpenDiskShared), so a
// failed-over request is usually still a disk hit: a replica failure is
// just a cache-warm restart.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// vnodes is the virtual-node count per replica on the hash ring:
// enough that removing one replica of three moves only its own ~1/3 of
// the key space, split roughly evenly across survivors.
const vnodes = 64

// ring is a consistent-hash ring over shard indexes. Immutable after
// construction — shard liveness is the Router's concern, the ring only
// answers "whose key is this, and who is next in line".
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// newRing places vnodes points per shard, each at the hash of the
// shard's stable name (its URL) plus the vnode ordinal — so ring
// placement is identical across router restarts and across routers.
func newRing(names []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(names)*vnodes), shards: len(names)}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("vnode\x00%s\x00%d", name, v)))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(sum[:8]), shard: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// order returns every shard index in preference order for key: the home
// shard first (the first point at or after the key's hash, wrapping),
// then each distinct next shard walking the ring — the spill order that
// keeps a failed-over key on one deterministic second choice instead of
// scattering it.
func (r *ring) order(key [sha256.Size]byte) []int {
	out := make([]int, 0, r.shards)
	if len(r.points) == 0 {
		return out
	}
	h := binary.BigEndian.Uint64(key[:8])
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.shards)
	for i := 0; i < len(r.points) && len(out) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
