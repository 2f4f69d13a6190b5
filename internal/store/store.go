// Package store is the tiered, content-addressed artifact store behind
// the compilation engine's caches: an in-memory LRU front (LRU,
// generalising the engine's original result cache) over an optional
// crash-safe on-disk tier (Disk) of versioned, checksummed blobs,
// composed by Tiered. Artifacts are addressed by Key — a SHA-256 content
// address computed by the caller (the engine derives it from the
// canonical request form) — so a key hit is a proof the stored artifact
// answers the lookup, across processes and restarts. The store is
// value-agnostic: callers supply per-call encode/decode functions, so
// decoding may close over request context. The engine's result cache
// is a Tiered view over the disk tier; its stage cache is a memory-only
// Tiered view.
package store

import (
	"crypto/sha256"
	"encoding/hex"
)

// Key is a content address: SHA-256 of the canonical form of whatever
// the artifact answers (the engine hashes circuit + topology + resolved
// pipeline). Two artifacts share a key exactly when they are
// interchangeable.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (also the disk tier's blob
// file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Tier identifies which tier served a lookup.
type Tier int

const (
	// TierNone means the lookup missed every tier.
	TierNone Tier = iota
	// TierMemory means the in-memory LRU front served the lookup.
	TierMemory
	// TierDisk means the persistent disk tier served the lookup (the
	// value was then promoted into the memory front).
	TierDisk
)

var tierNames = [...]string{"", "memory", "disk"}

func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return "tier(?)"
}

// LRUStats is a point-in-time snapshot of an in-memory tier's counters.
type LRUStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Capacity  int
}

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s LRUStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
