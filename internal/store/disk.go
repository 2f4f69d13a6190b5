package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Blob layout: a fixed magic that versions the on-disk format, the
// payload length, the payload's SHA-256, then the payload. Get rejects
// anything that fails any of the three checks — a truncated write, a
// flipped bit, or a format bump all read back as clean misses, never as
// wrong artifacts.
const (
	blobMagic  = "ssync-blob-v1\n"
	blobSuffix = ".blob"
	headerLen  = len(blobMagic) + 8 + sha256.Size
)

// DiskStats is a point-in-time snapshot of a disk tier's counters.
type DiskStats struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Evictions uint64
	// Corrupt counts blobs dropped because they failed validation (bad
	// magic, short read, checksum mismatch) or vanished underneath the
	// index; each is served as a miss.
	Corrupt uint64
	// Rejected counts puts skipped because a single blob exceeded the
	// size cap on its own.
	Rejected uint64
	Entries  int
	// Bytes is the current on-disk footprint; MaxBytes the configured cap
	// (0 = unbounded). In shared mode both describe the local view —
	// blobs this process has written or served — which lags the
	// directory's combined footprint between eviction rescans.
	Bytes    int64
	MaxBytes int64
	// Shared reports that the tier was opened with OpenDiskShared and
	// coordinates with other processes over the same directory.
	Shared bool
}

// diskEntry is the in-memory index record for one blob.
type diskEntry struct {
	key  Key
	size int64
	last time.Time // last access; eviction removes the oldest first
	// gen counts Put refreshes of this entry; Get captures it before
	// reading the file outside the lock, so a corrupt read can tell "the
	// blob I read is bad" from "a concurrent Put replaced the blob while
	// I was reading" and never deletes a freshly written replacement.
	gen uint64
}

// Disk is the persistent tier: one content-addressed blob file per key
// under a flat directory, written crash-safely (temp file + fsync +
// rename, so a crash mid-write leaves either the old blob or a stray
// temp file that the next Open removes — never a half-written blob under
// a valid name). The tier is size-capped with LRU-by-access eviction
// (O(1): the index keeps a recency list, seeded from file mtimes on
// Open); access times are mirrored onto file mtimes so recency survives
// restarts. Safe for concurrent use within one process. Multiple Disks
// over one directory — N replica daemons mounting one cache dir —
// require shared mode (OpenDiskShared), which coordinates eviction and
// reads across processes with advisory file locks; a plain OpenDisk
// tier assumes it owns the index, so another daemon's evictions would
// read as corrupt-blob misses and the byte caps would drift.
type Disk struct {
	// shared marks a tier opened with OpenDiskShared: reads take shared
	// flocks, index misses probe the directory, and eviction runs under
	// the cross-process lease instead of trusting the local index.
	shared bool
	mu     sync.Mutex
	dir    string
	max    int64 // <= 0: unbounded
	// size is the summed byte footprint of ll's entries; ll orders blobs
	// most-recently-accessed first, index addresses its elements by key.
	size      int64
	ll        *list.List
	index     map[Key]*list.Element
	hits      uint64
	misses    uint64
	puts      uint64
	evictions uint64
	corrupt   uint64
	rejected  uint64
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir, capped
// at maxBytes total blob bytes (<= 0 means unbounded). Stray temp files
// from interrupted writes are removed; existing valid-named blobs are
// indexed by their file mtime, so the LRU order persists across
// restarts. Foreign files in the directory are left untouched and do not
// count against the cap.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	return openDisk(dir, maxBytes, false)
}

func openDisk(dir string, maxBytes int64, shared bool) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: disk tier needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk tier: %w", err)
	}
	d := &Disk{dir: dir, max: maxBytes, shared: shared, ll: list.New(), index: make(map[Key]*list.Element)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: disk tier: %w", err)
	}
	var found []*diskEntry
	for _, e := range entries {
		name := e.Name()
		if isTempName(name) {
			info, _ := e.Info()
			d.removeStrayTemp(name, info) // interrupted write (kept briefly in shared mode)
			continue
		}
		key, ok := keyFromName(name)
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, &diskEntry{key: key, size: info.Size(), last: info.ModTime()})
	}
	// Seed the recency list oldest-first so the most recently accessed
	// blobs end up at the front, exactly as if the accesses had happened
	// in this process.
	sort.Slice(found, func(i, j int) bool { return found[i].last.Before(found[j].last) })
	for _, e := range found {
		d.index[e.key] = d.ll.PushFront(e)
		d.size += e.size
	}
	if shared {
		d.sharedEvict()
	} else {
		d.mu.Lock()
		d.evictLocked()
		d.mu.Unlock()
	}
	return d, nil
}

// keyFromName parses "<64 hex chars>.blob" back into a key.
func keyFromName(name string) (Key, bool) {
	var k Key
	hexPart, ok := strings.CutSuffix(name, blobSuffix)
	if !ok {
		return k, false
	}
	raw, err := hex.DecodeString(hexPart)
	if err != nil || len(raw) != len(k) {
		return k, false
	}
	copy(k[:], raw)
	return k, true
}

func (d *Disk) path(k Key) string {
	return filepath.Join(d.dir, k.String()+blobSuffix)
}

// Get returns the payload stored under key. Corrupt or vanished blobs
// are dropped and reported as misses — the caller recomputes and Put
// heals the entry. The mutex guards only the index; the file read and
// checksum run outside it, so concurrent lookups of different keys do
// not serialize behind each other's I/O.
func (d *Disk) Get(k Key) ([]byte, bool) {
	d.mu.Lock()
	el, ok := d.index[k]
	if !ok {
		if d.shared {
			// Another replica may have written this key; probe the
			// directory (getProbe releases the mutex).
			return d.getProbe(k)
		}
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	gen := el.Value.(*diskEntry).gen
	d.mu.Unlock()

	// Shared mode reads under a shared flock so a concurrent evictor in
	// another process never unlinks a blob mid-read.
	payload, err := readBlob(d.path(k), d.shared)

	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok = d.index[k]
	if !ok {
		// Evicted while we were reading; whatever we read no longer
		// represents the tier.
		d.misses++
		return nil, false
	}
	e := el.Value.(*diskEntry)
	if err != nil {
		if d.shared && errors.Is(err, fs.ErrNotExist) {
			// Another replica evicted the blob under our index: a clean
			// cross-process miss, not corruption.
			d.size -= e.size
			d.ll.Remove(el)
			delete(d.index, k)
			d.misses++
			return nil, false
		}
		if e.gen == gen {
			// The blob we read is the one the index describes, and it is
			// bad: drop it. (A differing gen means a concurrent Put just
			// replaced it — leave the fresh blob alone.) In shared mode
			// the unlink additionally requires the exclusive lock and a
			// stable mtime, so a replacement racing in from another
			// process survives.
			if d.shared {
				removeBlobIfUnused(d.path(k), time.Time{})
			} else {
				os.Remove(d.path(k))
			}
			d.size -= e.size
			d.ll.Remove(el)
			delete(d.index, k)
			d.corrupt++
		}
		d.misses++
		return nil, false
	}
	now := time.Now()
	e.last = now
	d.ll.MoveToFront(el)
	os.Chtimes(d.path(k), now, now) // best effort: recency survives restart
	d.hits++
	return payload, true
}

// Put stores payload under key crash-safely and evicts least-recently
// accessed blobs while the tier is over its cap. Storing an existing key
// overwrites atomically (format/version bumps self-heal this way). The
// write — fsync included — runs outside the mutex: temp-file + rename is
// already safe between concurrent writers, so only the index update is
// serialized and a slow fsync never stalls unrelated lookups. (A crash
// between rename and index update merely leaves a valid blob the next
// Open indexes.)
func (d *Disk) Put(k Key, payload []byte) error {
	blobSize := int64(headerLen + len(payload))
	if d.max > 0 && blobSize > d.max {
		d.mu.Lock()
		d.rejected++
		d.mu.Unlock()
		return nil // cannot fit even alone; not an error, just uncacheable
	}
	if err := writeBlob(d.dir, d.path(k), payload); err != nil {
		return err
	}
	d.mu.Lock()
	if el, ok := d.index[k]; ok {
		e := el.Value.(*diskEntry)
		d.size += blobSize - e.size
		e.size, e.last = blobSize, time.Now()
		e.gen++
		d.ll.MoveToFront(el)
	} else {
		d.index[k] = d.ll.PushFront(&diskEntry{key: k, size: blobSize, last: time.Now()})
		d.size += blobSize
	}
	d.puts++
	if !d.shared {
		d.evictLocked()
		d.mu.Unlock()
		return nil
	}
	// Shared mode evicts against the directory's combined footprint, not
	// the local index: run when the local view is over cap, and
	// periodically regardless — other replicas' writes are invisible to
	// the local byte count until a rescan.
	evict := d.max > 0 && (d.size > d.max || d.puts%sharedEvictEvery == 0)
	d.mu.Unlock()
	if evict {
		d.sharedEvict()
	}
	return nil
}

// evictLocked removes least-recently-accessed blobs (the list back)
// until the tier fits its cap.
func (d *Disk) evictLocked() {
	for d.max > 0 && d.size > d.max && d.ll.Len() > 0 {
		oldest := d.ll.Back()
		e := oldest.Value.(*diskEntry)
		os.Remove(d.path(e.key))
		d.size -= e.size
		d.ll.Remove(oldest)
		delete(d.index, e.key)
		d.evictions++
	}
}

// Stats snapshots the tier counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Hits: d.hits, Misses: d.misses, Puts: d.puts,
		Evictions: d.evictions, Corrupt: d.corrupt, Rejected: d.rejected,
		Entries: len(d.index), Bytes: d.size, MaxBytes: d.max,
		Shared: d.shared,
	}
}

// writeBlob writes magic + length + checksum + payload to a temp file in
// dir, fsyncs, and renames onto path — the atomic publish that makes a
// crash leave either the previous blob or nothing.
func writeBlob(dir, path string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	header := make([]byte, headerLen)
	n := copy(header, blobMagic)
	binary.BigEndian.PutUint64(header[n:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(header[n+8:], sum[:])
	if _, err := tmp.Write(header); err != nil {
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		tmp = nil
		return err
	}
	tmp = nil
	return nil
}

// readBlob reads and validates one blob, returning its payload. With
// lock set (shared mode) the read holds a shared advisory flock, so a
// cross-process evictor's exclusive lock cannot unlink the blob
// mid-read; an unlink racing in before our lock is harmless — the open
// file descriptor keeps the inode readable.
func readBlob(path string, lock bool) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if lock {
		if err := flockShared(f); err != nil {
			return nil, err
		}
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(data) < headerLen || string(data[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("store: blob %s: bad header", filepath.Base(path))
	}
	want := binary.BigEndian.Uint64(data[len(blobMagic):])
	payload := data[headerLen:]
	if uint64(len(payload)) != want {
		return nil, fmt.Errorf("store: blob %s: truncated (%d of %d payload bytes)",
			filepath.Base(path), len(payload), want)
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[len(blobMagic)+8:headerLen]) {
		return nil, fmt.Errorf("store: blob %s: checksum mismatch", filepath.Base(path))
	}
	return payload, nil
}
