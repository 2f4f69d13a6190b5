package store

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssync/internal/obs"
)

func keyOf(s string) Key { return Key(sha256.Sum256([]byte(s))) }

func payload(s string, n int) []byte {
	return []byte(strings.Repeat(s, n))
}

// diskDir returns the directory disk-tier tests run under: t.TempDir by
// default, or a fresh directory under $SSYNC_STORE_DIR when set (CI
// points it at a tmpfs mount to exercise the round-trip there).
func diskDir(t *testing.T) string {
	t.Helper()
	if base := os.Getenv("SSYNC_STORE_DIR"); base != "" {
		dir, err := os.MkdirTemp(base, "store-test-*")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		return dir
	}
	return t.TempDir()
}

func TestDiskRoundTrip(t *testing.T) {
	dir := diskDir(t)
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("round-trip")
	want := payload("artifact", 100)
	if _, ok := d.Get(k); ok {
		t.Fatal("hit on empty tier")
	}
	if err := d.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(k)
	if !ok || string(got) != string(want) {
		t.Fatalf("Get after Put: ok=%v payload match=%v", ok, string(got) == string(want))
	}

	// A fresh Disk over the same directory — a process restart — serves
	// the same blob.
	d2, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = d2.Get(k)
	if !ok || string(got) != string(want) {
		t.Fatalf("Get after reopen: ok=%v payload match=%v", ok, string(got) == string(want))
	}
	st := d2.Stats()
	if st.Entries != 1 || st.Hits != 1 {
		t.Errorf("reopened stats = %+v, want 1 entry 1 hit", st)
	}
}

func TestDiskCorruptBlobIsACleanMiss(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("to-corrupt")
	if err := d.Put(k, payload("x", 500)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.String()+blobSuffix)

	// Truncate mid-payload: the length check fails, the blob is dropped,
	// and the lookup is a miss — never a short artifact.
	if err := os.Truncate(path, int64(headerLen+10)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(k); ok {
		t.Fatal("truncated blob served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt blob not removed: %v", err)
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Errorf("stats after corruption = %+v, want Corrupt=1 Entries=0", st)
	}

	// A healing Put restores the entry.
	if err := d.Put(k, payload("x", 500)); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(k); !ok {
		t.Fatal("healed blob missed")
	}

	// Flip a payload bit: the checksum catches it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(k); ok {
		t.Fatal("bit-flipped blob served as a hit")
	}
}

func TestDiskEvictionBounds(t *testing.T) {
	dir := t.TempDir()
	blob := payload("e", 1000)
	blobSize := int64(headerLen + len(blob))
	max := 4 * blobSize
	d, err := OpenDisk(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Put(keyOf(fmt.Sprintf("evict-%d", i)), blob); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.Bytes > max {
			t.Fatalf("after put %d: %d bytes on disk exceeds cap %d", i, st.Bytes, max)
		}
	}
	st := d.Stats()
	if st.Entries != 4 || st.Evictions != 6 {
		t.Errorf("stats = %+v, want 4 entries, 6 evictions", st)
	}
	// The survivors are the most recently stored.
	for i := 6; i < 10; i++ {
		if _, ok := d.Get(keyOf(fmt.Sprintf("evict-%d", i))); !ok {
			t.Errorf("recent blob %d evicted", i)
		}
	}
	// A blob that cannot fit alone is rejected, not stored truncated.
	if err := d.Put(keyOf("whale"), payload("w", int(max))); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Rejected != 1 || st.Bytes > max {
		t.Errorf("oversized put: stats = %+v, want Rejected=1 within cap", st)
	}
}

func TestDiskAccessOrderSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	blob := payload("a", 100)
	blobSize := int64(headerLen + len(blob))
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	old, fresh := keyOf("old"), keyOf("fresh")
	if err := d.Put(old, blob); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(fresh, blob); err != nil {
		t.Fatal(err)
	}
	// Touch "old" last so it is the most recently accessed; mtimes carry
	// that ordering across the reopen. Filesystem mtime granularity can
	// be coarse, so force a visible gap.
	past := time.Now().Add(-time.Hour)
	os.Chtimes(filepath.Join(dir, fresh.String()+blobSuffix), past, past)
	if _, ok := d.Get(old); !ok {
		t.Fatal("old missed")
	}

	// Reopen with room for one blob: the least recently accessed
	// ("fresh", backdated) must be the one evicted.
	d2, err := OpenDisk(dir, blobSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.Get(old); !ok {
		t.Error("most recently accessed blob evicted on reopen")
	}
	if _, ok := d2.Get(fresh); ok {
		t.Error("least recently accessed blob survived a cap it cannot fit")
	}
}

func TestDiskOpenRemovesStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, "put-123.tmp")
	if err := os.WriteFile(stray, []byte("half a blob"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "README")
	if err := os.WriteFile(foreign, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Error("stray temp file survived Open")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Error("foreign file removed by Open")
	}
}

func identity(b []byte) ([]byte, error) { return b, nil }

func TestTieredPromotesDiskHits(t *testing.T) {
	ctx := context.Background()
	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered[[]byte](1, disk)
	a, b := keyOf("a"), keyOf("b")
	tiered.Put(ctx, a, payload("a", 10), identity)
	tiered.Put(ctx, b, payload("b", 10), identity) // evicts a from the 1-entry memory front

	if v, tier, ok := tiered.Get(ctx, b, identity); !ok || tier != TierMemory || string(v) != strings.Repeat("b", 10) {
		t.Fatalf("b: tier=%v ok=%v", tier, ok)
	}
	// a fell out of memory but lives on disk; the hit promotes it back.
	if _, tier, ok := tiered.Get(ctx, a, identity); !ok || tier != TierDisk {
		t.Fatalf("a after memory eviction: tier=%v ok=%v, want disk hit", tier, ok)
	}
	if _, tier, ok := tiered.Get(ctx, a, identity); !ok || tier != TierMemory {
		t.Fatalf("a after promotion: tier=%v ok=%v, want memory hit", tier, ok)
	}
	if _, tier, ok := tiered.Get(ctx, keyOf("absent"), identity); ok || tier != TierNone {
		t.Fatalf("absent key: tier=%v ok=%v", tier, ok)
	}

	st := tiered.Stats()
	if st.MemHits != 2 || st.DiskHits != 1 || st.Misses != 1 || st.Puts != 2 || !st.HasDisk {
		t.Errorf("stats = %+v, want 2 mem hits, 1 disk hit, 1 miss, 2 puts", st)
	}
	if got := st.HitRate(); got != 0.75 {
		t.Errorf("hit rate = %v, want 0.75", got)
	}
}

func TestTieredMemoryOnly(t *testing.T) {
	ctx := context.Background()
	tiered := NewTiered[int](4, nil)
	k := keyOf("n")
	tiered.Put(ctx, k, 42, nil)
	if v, tier, ok := tiered.Get(ctx, k, nil); !ok || tier != TierMemory || v != 42 {
		t.Fatalf("memory-only get: v=%d tier=%v ok=%v", v, tier, ok)
	}
	if _, _, ok := tiered.Get(ctx, keyOf("other"), nil); ok {
		t.Fatal("hit on absent key")
	}
	if st := tiered.Stats(); st.HasDisk || st.MemHits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTieredDecodeFailureIsAMiss(t *testing.T) {
	ctx := context.Background()
	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered[[]byte](1, disk)
	a := keyOf("versioned")
	tiered.Put(ctx, a, payload("v1", 5), identity)
	tiered.Put(ctx, keyOf("spill"), payload("s", 5), identity) // push a out of memory
	bad := func([]byte) ([]byte, error) { return nil, fmt.Errorf("format bump") }
	if _, _, ok := tiered.Get(ctx, a, bad); ok {
		t.Fatal("undecodable blob served as a hit")
	}
	if st := tiered.Stats(); st.Errors != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want Errors=1 Misses=1", st)
	}
}

// TestTieredRecordsDiskSpans: on a traced context every disk-tier blob
// operation — and nothing served by the memory front — is one
// "store.disk" span whose op and outcome attrs name what happened.
func TestTieredRecordsDiskSpans(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), tr)
	tiered := NewTiered[[]byte](1, disk)
	a := keyOf("a")
	tiered.Get(ctx, a, identity)                       // disk miss
	tiered.Put(ctx, a, payload("a", 10), identity)     // disk put
	tiered.Get(ctx, a, identity)                       // memory hit: no span
	tiered.Put(ctx, keyOf("b"), payload("b", 10), nil) // memory only, evicts a: no span
	tiered.Get(ctx, a, identity)                       // disk hit

	var got []string
	for _, sp := range tr.Spans() {
		if sp.Name != "store.disk" {
			t.Errorf("unexpected span %q", sp.Name)
		}
		got = append(got, sp.Attrs["op"]+"/"+sp.Attrs["outcome"])
	}
	want := []string{"get/miss", "put/ok", "get/ok"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("disk spans = %v, want %v", got, want)
	}
	st := disk.Stats()
	if n := int(st.Hits + st.Misses + st.Puts); n != len(got) {
		t.Errorf("%d disk spans for %d disk operations (%+v)", len(got), n, st)
	}
}

func TestLRUGenericStandalone(t *testing.T) {
	lru := NewLRU[string](2)
	a, b, c := keyOf("a"), keyOf("b"), keyOf("c")
	lru.Put(a, "A")
	lru.Put(b, "B")
	if v, ok := lru.Get(a); !ok || v != "A" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	lru.Put(c, "C") // evicts b (least recently used)
	if _, ok := lru.Get(b); ok {
		t.Fatal("b survived eviction")
	}
	if st := lru.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v", st)
	}
}
