package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadBlob drives arbitrary file contents through readBlob, the disk
// tier's header check: a file is accepted only if it is byte for byte
// what writeBlob writes for the payload returned (magic, length and
// SHA-256 all agree), and every payload writeBlob stores reads back
// unchanged.
func FuzzReadBlob(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, keyOf("fuzz").String()+blobSuffix)
	written := func(t testing.TB, payload []byte) []byte {
		t.Helper()
		if err := writeBlob(dir, path, payload); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, p := range [][]byte{nil, []byte("ssync-result-v1\x00{}"), payload("artifact", 100)} {
		blob := written(f, p)
		f.Add(blob)
		f.Add(blob[:len(blob)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := readBlob(path, false); err == nil && !bytes.Equal(written(t, got), data) {
			t.Fatalf("accepted %d bytes that writeBlob would not write for their payload", len(data))
		}
		written(t, data)
		if got, err := readBlob(path, false); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("a %d-byte payload did not round-trip: %v", len(data), err)
		}
	})
}
