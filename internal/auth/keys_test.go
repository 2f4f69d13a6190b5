package auth

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssync/internal/sched"
)

// writeKeys writes a keys file into a temp dir and returns its path.
func writeKeys(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.conf")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseKeysFormat(t *testing.T) {
	entries, err := parseKeys(strings.NewReader(`
# comment, then a blank line

` + HashKey("alpha-key") + `  alpha  rate=5 burst=2 inflight=3 max-priority=batch
` + HashKey("beta-key") + "\tbeta\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	a := entries[0].principal
	if a.Name != "alpha" || a.Limits.RatePerSec != 5 || a.Limits.Burst != 2 ||
		a.Limits.MaxInFlight != 3 || a.Limits.MaxClass != sched.Batch {
		t.Fatalf("alpha parsed wrong: %+v", a)
	}
	b := entries[1].principal
	if b.Name != "beta" || b.Limits != (Limits{}) {
		t.Fatalf("beta should have zero (unlimited) limits: %+v", b)
	}
}

func TestParseKeysSharedPrincipalAcrossKeys(t *testing.T) {
	// Key rotation: two keys, one principal — and they must share one
	// *Principal value so the quota enforcer sees one identity.
	entries, err := parseKeys(strings.NewReader(
		HashKey("old") + " svc rate=2\n" + HashKey("new") + " svc rate=2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].principal != entries[1].principal {
		t.Fatal("keys for one principal name should share the Principal")
	}
	if _, err := parseKeys(strings.NewReader(
		HashKey("old") + " svc rate=2\n" + HashKey("new") + " svc rate=3\n")); err == nil {
		t.Fatal("conflicting limits for one principal should fail")
	}
}

// badKeyLines are key files parseKeys must refuse, by reason.
var badKeyLines = map[string]string{
	"short hash":     "abcd alpha",
	"non-hex hash":   strings.Repeat("zz", 32) + " alpha",
	"missing name":   HashKey("k"),
	"bad name":       HashKey("k") + " bad/name",
	"oversized name": HashKey("k") + " " + strings.Repeat("a", 65),
	"reserved name":  HashKey("k") + " " + AnonymousName,
	"unknown option": HashKey("k") + " a color=red",
	"bad rate":       HashKey("k") + " a rate=fast",
	"negative rate":  HashKey("k") + " a rate=-1",
	"NaN rate":       HashKey("k") + " a rate=NaN",
	"infinite rate":  HashKey("k") + " a rate=Inf",
	"overflow rate":  HashKey("k") + " a rate=1e400",
	"NaN burst":      HashKey("k") + " a rate=1 burst=NaN",
	"infinite burst": HashKey("k") + " a rate=1 burst=+Inf",
	"negative burst": HashKey("k") + " a burst=-0.5",
	"bad class":      HashKey("k") + " a max-priority=urgent",
	"malformed opt":  HashKey("k") + " a rate",
	"duplicate hash": HashKey("k") + " a\n" + HashKey("k") + " b",
	"bad inflight":   HashKey("k") + " a inflight=-2",
}

func TestParseKeysRejects(t *testing.T) {
	for name, line := range badKeyLines {
		if _, err := parseKeys(strings.NewReader(line)); err == nil {
			t.Errorf("%s: parse should fail: %q", name, line)
		}
	}
}

func TestAuthenticateLookup(t *testing.T) {
	path := writeKeys(t,
		HashKey("alpha-secret")+" alpha rate=5",
		HashKey("beta-secret")+" beta",
	)
	a, err := NewAuthenticator(Config{KeysFile: path})
	if err != nil {
		t.Fatal(err)
	}
	p, err := a.Authenticate("alpha-secret")
	if err != nil || p.Name != "alpha" {
		t.Fatalf("alpha lookup: %v, %v", p, err)
	}
	if _, err := a.Authenticate("alpha-secre"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("near-miss key should be ErrUnknownKey, got %v", err)
	}
	if _, err := a.Authenticate(""); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("missing credential should be ErrUnauthenticated, got %v", err)
	}
	if !a.Required() {
		t.Fatal("keys file without Optional should require credentials")
	}
}

func TestAuthenticateOptionalAnonymous(t *testing.T) {
	path := writeKeys(t, HashKey("k")+" alpha")
	a, err := NewAuthenticator(Config{
		KeysFile: path, Optional: true, Anonymous: Limits{RatePerSec: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := a.Authenticate("")
	if err != nil || !p.Anonymous || p.Name != AnonymousName {
		t.Fatalf("optional mode should admit anonymous: %v, %v", p, err)
	}
	if p.Limits.RatePerSec != 1 {
		t.Fatal("anonymous principal should carry the configured limits")
	}
	// Optional never converts a wrong key into anonymous access.
	if _, err := a.Authenticate("wrong"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("wrong key in optional mode must still fail, got %v", err)
	}
}

func TestAuthenticateNoKeysFile(t *testing.T) {
	a, err := NewAuthenticator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Required() {
		t.Fatal("no keys file should not require credentials")
	}
	if p, err := a.Authenticate(""); err != nil || !p.Anonymous {
		t.Fatalf("no keys file: anonymous expected, got %v, %v", p, err)
	}
	if _, err := a.Authenticate("anything"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("presented key with no key set must fail, got %v", err)
	}
}

func TestAuthenticateHostileCredentials(t *testing.T) {
	path := writeKeys(t, HashKey("k")+" alpha")
	a, err := NewAuthenticator(Config{KeysFile: path, Optional: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, cred := range map[string]string{
		"oversized":     strings.Repeat("x", maxCredentialLen+1),
		"control bytes": "key\x00with\x01nul",
		"newline":       "key\nwith-newline",
		"space":         "key with space",
		"high bytes":    "key\xff\xfe",
	} {
		if _, err := a.Authenticate(cred); !errors.Is(err, ErrBadCredential) {
			t.Errorf("%s: want ErrBadCredential, got %v", name, err)
		}
	}
}

func TestHotReload(t *testing.T) {
	path := writeKeys(t, HashKey("old-key")+" svc")
	a, err := NewAuthenticator(Config{KeysFile: path, CheckInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Authenticate("old-key"); err != nil {
		t.Fatal(err)
	}
	// Rotate the key on disk; the next lookup picks it up (negative
	// CheckInterval checks freshness on every request).
	if err := os.WriteFile(path, []byte(HashKey("new-key")+" svc\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Authenticate("new-key"); err != nil {
		t.Fatalf("rotated key should authenticate after reload: %v", err)
	}
	if _, err := a.Authenticate("old-key"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("retired key should fail after reload: %v", err)
	}

	// A bad edit must not take authentication down: the previous
	// generation keeps serving and the failure is counted.
	if err := os.WriteFile(path, []byte("not a keys file\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Authenticate("new-key"); err != nil {
		t.Fatalf("old generation should keep serving past a bad edit: %v", err)
	}
	if st := a.Stats(); st.ReloadErrors == 0 {
		t.Fatal("bad edit should count a reload error")
	}
}

func TestHotReloadMidTraffic(t *testing.T) {
	path := writeKeys(t, HashKey("gen-0")+" svc")
	a, err := NewAuthenticator(Config{KeysFile: path, CheckInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer lookups from several goroutines while the file is rewritten
	// generation by generation: every lookup must resolve against a
	// complete generation (current or previous), never a torn one.
	done := make(chan struct{})
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-done:
					errc <- nil
					return
				default:
				}
				p, err := a.Authenticate("gen-0")
				if err != nil && !errors.Is(err, ErrUnknownKey) {
					errc <- fmt.Errorf("unexpected error mid-reload: %w", err)
					return
				}
				if err == nil && p.Name != "svc" {
					errc <- fmt.Errorf("wrong principal %q", p.Name)
					return
				}
			}
		}()
	}
	for gen := 1; gen <= 50; gen++ {
		content := HashKey("gen-0") + " svc\n" + HashKey(fmt.Sprintf("gen-%d", gen)) + " svc\n"
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Authenticate(fmt.Sprintf("gen-%d", gen)); err != nil {
			t.Fatalf("generation %d should authenticate: %v", gen, err)
		}
	}
	close(done)
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHashKeyMatchesSha256sum(t *testing.T) {
	// The documented operator flow is `echo -n KEY | sha256sum`.
	if got := HashKey("abc"); got != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Fatalf("HashKey(abc) = %s", got)
	}
}
