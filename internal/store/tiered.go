package store

import (
	"context"
	"sync"
	"time"

	"ssync/internal/obs"
)

// TieredStats is a point-in-time snapshot of one tiered store, taken
// under a single lock so the per-tier counters are mutually consistent
// (a reader can never observe a memory hit that the miss counter has not
// yet stopped counting — the "torn read" a per-tier snapshot would
// allow).
type TieredStats struct {
	// MemHits counts lookups served by the in-memory front.
	MemHits uint64
	// DiskHits counts lookups served by the disk tier (the decoded value
	// was promoted into the memory front).
	DiskHits uint64
	// Misses counts lookups no tier could serve.
	Misses uint64
	// Puts counts artifacts stored.
	Puts uint64
	// Errors counts encode/decode/write failures against the disk tier;
	// each is absorbed as a miss (lookups) or a memory-only store (puts).
	Errors uint64
	// Mem details the in-memory front. Its Hits/Misses are the LRU's own
	// internal counters (a disk promotion registers as an LRU miss then a
	// put); use MemHits/DiskHits/Misses above for the tiered view.
	Mem LRUStats
	// Disk details the disk tier; zero when the store is memory-only.
	Disk DiskStats
	// HasDisk reports whether a disk tier is attached.
	HasDisk bool
}

// HitRate is (memory + disk hits) / lookups, or 0 before any lookup.
func (s TieredStats) HitRate() float64 {
	total := s.MemHits + s.DiskHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.MemHits+s.DiskHits) / float64(total)
}

// Tiered is a typed view over the two cache tiers: an in-memory LRU of
// decoded values in front of an optional shared disk tier of encoded
// blobs. Lookups fall through memory → disk (promoting disk hits);
// stores write through to both. Serialization is per-call — Get takes
// the decoder, Put the encoder — so decoding may close over request
// context (e.g. the device topology a compiled result is rebound to)
// and several typed views can share one disk tier. Safe for concurrent
// use. The mutex guards the memory tier and the counters only — encode,
// decode and disk I/O (fsync included) run outside it, so a slow disk
// write never blocks concurrent memory-tier hits; Stats still reads
// every counter of this store under the one lock, which is what makes
// it a consistent snapshot. On a traced context (obs.WithTrace) every
// disk-tier blob operation is recorded as a "store.disk" span.
type Tiered[V any] struct {
	mu       sync.Mutex
	mem      *LRU[V]
	disk     *Disk
	memHits  uint64
	diskHits uint64
	misses   uint64
	puts     uint64
	errors   uint64
}

// NewTiered returns a tiered store with an in-memory front of memCap
// entries (min 1) over disk, which may be nil for a memory-only store
// and may be shared with other Tiered instances.
func NewTiered[V any](memCap int, disk *Disk) *Tiered[V] {
	return &Tiered[V]{mem: NewLRU[V](memCap), disk: disk}
}

// Get returns the value stored under key and the tier that served it.
// Disk blobs that fail to decode (e.g. written by an older format) are
// absorbed as misses; the next Put overwrites them.
func (t *Tiered[V]) Get(ctx context.Context, key Key, decode func([]byte) (V, error)) (V, Tier, bool) {
	t.mu.Lock()
	if v, ok := t.mem.Get(key); ok {
		t.memHits++
		t.mu.Unlock()
		return v, TierMemory, true
	}
	t.mu.Unlock()
	var zero V
	if t.disk != nil && decode != nil {
		start := time.Now()
		blob, ok := t.disk.Get(key)
		recordDiskOp(ctx, "get", outcome(ok, "miss"), start)
		if ok {
			// Decode outside the lock; two concurrent misses may both
			// decode and promote, which is benign — same key, same
			// content.
			v, err := decode(blob)
			t.mu.Lock()
			defer t.mu.Unlock()
			if err == nil {
				t.mem.Put(key, v)
				t.diskHits++
				return v, TierDisk, true
			}
			t.errors++
			t.misses++
			return zero, TierNone, false
		}
	}
	t.mu.Lock()
	t.misses++
	t.mu.Unlock()
	return zero, TierNone, false
}

// Recheck looks key up in the memory front once more, for a caller
// whose Get just missed and who has since waited (the engine's new
// flight leader, whose predecessor may have landed in between). A hit
// turns that Get's miss into a memory hit; a miss counts nothing, so
// each caller still counts one lookup.
func (t *Tiered[V]) Recheck(key Key) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.mem.Get(key)
	if ok {
		t.misses--
		t.memHits++
	}
	return v, ok
}

// recordDiskOp records one disk-tier blob operation that began at start
// as a "store.disk" span under ctx's current span, with its op ("get",
// "put") and outcome ("ok", "miss", "error"); a no-op when ctx carries
// no trace. The span times the blob I/O alone, not encode or decode.
func recordDiskOp(ctx context.Context, op, outcome string, start time.Time) {
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.Record("", obs.SpanID(ctx), "store.disk", start, time.Since(start),
			map[string]string{"op": op, "outcome": outcome})
	}
}

// outcome names a disk operation's result: "ok", or failed otherwise.
func outcome(ok bool, failed string) string {
	if ok {
		return "ok"
	}
	return failed
}

// Put stores the value under key in the memory front and, when a disk
// tier is attached, as an encoded blob. Encode or write failures degrade
// to a memory-only store (counted in Errors), never a lost value.
func (t *Tiered[V]) Put(ctx context.Context, key Key, v V, encode func(V) ([]byte, error)) {
	t.mu.Lock()
	t.mem.Put(key, v)
	t.puts++
	t.mu.Unlock()
	if t.disk == nil || encode == nil {
		return
	}
	// Encode and write (fsync included) outside the lock: publication to
	// the disk tier needs no ordering with the memory tier beyond what
	// content addressing already gives.
	blob, err := encode(v)
	if err == nil {
		start := time.Now()
		err = t.disk.Put(key, blob)
		recordDiskOp(ctx, "put", outcome(err == nil, "error"), start)
	}
	if err != nil {
		t.mu.Lock()
		t.errors++
		t.mu.Unlock()
	}
}

// Stats snapshots every counter of both tiers under one lock — the
// single consistent view the engine's Stats (and /v2/stats) read.
func (t *Tiered[V]) Stats() TieredStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TieredStats{
		MemHits: t.memHits, DiskHits: t.diskHits, Misses: t.misses,
		Puts: t.puts, Errors: t.errors,
		Mem: t.mem.Stats(),
	}
	if t.disk != nil {
		s.Disk = t.disk.Stats()
		s.HasDisk = true
	}
	return s
}
