package auth

import (
	"bufio"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssync/internal/sched"
)

// Config configures an Authenticator.
type Config struct {
	// KeysFile is the path of the API-key file (see ParseKeys for the
	// format). "" disables key authentication: every request resolves to
	// the anonymous principal (Optional is implied).
	KeysFile string
	// Optional admits requests with no credential as the shared anonymous
	// principal instead of rejecting them with ErrUnauthenticated. A
	// presented-but-wrong credential is still rejected — Optional never
	// turns a bad key into anonymous access.
	Optional bool
	// Anonymous bounds the shared anonymous principal. The zero value
	// means unlimited — set it on any internet-facing deployment running
	// with Optional.
	Anonymous Limits
	// CheckInterval throttles the keys-file freshness stat on the hot
	// path: at most one os.Stat per interval. 0 selects
	// DefaultCheckInterval; negative checks on every request (tests).
	CheckInterval time.Duration
}

// DefaultCheckInterval is the keys-file freshness-check throttle used
// when Config.CheckInterval is zero.
const DefaultCheckInterval = time.Second

// keyEntry is one parsed keys-file line.
type keyEntry struct {
	// hash is the raw 32-byte SHA-256 of the API key.
	hash [sha256.Size]byte
	// principal is the identity the key resolves to.
	principal *Principal
}

// keySet is one immutable parsed generation of the keys file, swapped
// atomically on reload.
type keySet struct {
	entries  []keyEntry
	loadedAt time.Time
	modTime  time.Time
	size     int64
}

// Authenticator resolves request credentials to principals against a
// hot-reloadable key file. It is safe for concurrent use; reloads swap
// the parsed key set atomically, so in-flight authentications always
// see a complete generation.
type Authenticator struct {
	cfg  Config
	anon *Principal
	set  atomic.Pointer[keySet]

	reloadMu     sync.Mutex // serializes reload attempts, not lookups
	lastCheck    atomic.Int64
	reloadErrors atomic.Uint64
}

// NewAuthenticator loads cfg.KeysFile (when set) and returns the
// authenticator. The initial load is strict — a service must not start
// on a keys file it cannot parse; later reload failures keep serving
// the previous generation instead (see Reload).
func NewAuthenticator(cfg Config) (*Authenticator, error) {
	if cfg.CheckInterval == 0 {
		cfg.CheckInterval = DefaultCheckInterval
	}
	a := &Authenticator{
		cfg:  cfg,
		anon: &Principal{Name: AnonymousName, Anonymous: true, Limits: cfg.Anonymous},
	}
	if cfg.KeysFile == "" {
		a.set.Store(&keySet{loadedAt: time.Now()})
		return a, nil
	}
	set, err := a.load()
	if err != nil {
		return nil, err
	}
	a.set.Store(set)
	return a, nil
}

// Required reports whether the authenticator demands a credential —
// i.e. a keys file is configured and anonymous access is off.
func (a *Authenticator) Required() bool {
	return a.cfg.KeysFile != "" && !a.cfg.Optional
}

// Authenticate resolves a presented API key (or the absence of one,
// key == "") to a principal.
//
// The lookup hashes the presented key and compares the digest against
// every loaded entry with a constant-time comparison, without early
// exit, so response timing reveals neither which entry matched nor how
// close a guess came — only the (public) fact that the key set is
// non-empty.
func (a *Authenticator) Authenticate(key string) (*Principal, error) {
	if key == "" {
		if a.cfg.KeysFile == "" || a.cfg.Optional {
			return a.anon, nil
		}
		return nil, ErrUnauthenticated
	}
	if err := checkCredential(key); err != nil {
		return nil, err
	}
	if a.cfg.KeysFile == "" {
		// No key set is loaded, so no key can be valid. Anonymous access
		// is the only offer, and a wrong credential never gets it.
		return nil, ErrUnknownKey
	}
	a.maybeReload()
	set := a.set.Load()
	digest := sha256.Sum256([]byte(key))
	var match *Principal
	for i := range set.entries {
		e := &set.entries[i]
		if subtle.ConstantTimeCompare(digest[:], e.hash[:]) == 1 {
			match = e.principal // keep scanning: constant work per lookup
		}
	}
	if match == nil {
		return nil, ErrUnknownKey
	}
	return match, nil
}

// maxCredentialLen bounds presented API keys (and therefore
// Authorization header payloads) before any hashing happens, so an
// oversized header is rejected as malformed rather than hashed.
const maxCredentialLen = 256

// checkCredential rejects malformed keys before lookup: oversized, or
// containing bytes outside printable non-space ASCII (anything a sane
// header-borne token never contains).
func checkCredential(key string) error {
	if len(key) > maxCredentialLen {
		return fmt.Errorf("%w: credential exceeds %d bytes", ErrBadCredential, maxCredentialLen)
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] > '~' {
			return fmt.Errorf("%w: credential contains invalid byte 0x%02x", ErrBadCredential, key[i])
		}
	}
	return nil
}

// maybeReload re-stats the keys file (throttled to one stat per
// CheckInterval) and reloads it when its mtime or size changed. A
// reload that fails to parse keeps the current generation serving and
// counts a reload error — a bad edit must never take authentication
// down with it.
func (a *Authenticator) maybeReload() {
	interval := a.cfg.CheckInterval
	if interval > 0 {
		now := time.Now().UnixNano()
		last := a.lastCheck.Load()
		if now-last < int64(interval) || !a.lastCheck.CompareAndSwap(last, now) {
			return
		}
	}
	cur := a.set.Load()
	fi, err := os.Stat(a.cfg.KeysFile)
	if err != nil {
		return // transient stat failure: keep serving the loaded set
	}
	if fi.ModTime().Equal(cur.modTime) && fi.Size() == cur.size {
		return
	}
	if err := a.Reload(); err != nil {
		a.reloadErrors.Add(1)
	}
}

// Reload re-parses the keys file now and swaps it in. On parse failure
// the previous generation keeps serving and the error is returned.
func (a *Authenticator) Reload() error {
	if a.cfg.KeysFile == "" {
		return nil
	}
	a.reloadMu.Lock()
	defer a.reloadMu.Unlock()
	set, err := a.load()
	if err != nil {
		return err
	}
	a.set.Store(set)
	return nil
}

// load parses the configured keys file into a fresh keySet.
func (a *Authenticator) load() (*keySet, error) {
	f, err := os.Open(a.cfg.KeysFile)
	if err != nil {
		return nil, fmt.Errorf("auth: open keys file: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("auth: stat keys file: %w", err)
	}
	entries, err := parseKeys(f)
	if err != nil {
		return nil, fmt.Errorf("auth: %s: %w", a.cfg.KeysFile, err)
	}
	return &keySet{
		entries:  entries,
		loadedAt: time.Now(),
		modTime:  fi.ModTime(),
		size:     fi.Size(),
	}, nil
}

// parseKeys parses a keys file. One key per line:
//
//	<sha256-hex-of-key>  <principal-name>  [rate=N] [burst=N] [inflight=N] [max-priority=CLASS]
//
// Blank lines and #-comments are ignored. The hash is the lowercase hex
// SHA-256 of the raw API key (produce it with `echo -n KEY | sha256sum`
// or HashKey). Principal names are 1–64 characters of [A-Za-z0-9._-];
// several keys may map to one principal name (key rotation), but their
// limit options must agree. Limit fields left unset mean unlimited.
func parseKeys(r interface{ Read([]byte) (int, error) }) ([]keyEntry, error) {
	var out []keyEntry
	seen := make(map[string]int)
	byName := make(map[string]*Principal)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want \"<sha256-hex> <name> [options]\", got %d fields", lineNo, len(fields))
		}
		rawHash, name := strings.ToLower(fields[0]), fields[1]
		hb, err := hex.DecodeString(rawHash)
		if err != nil || len(hb) != sha256.Size {
			return nil, fmt.Errorf("line %d: key hash must be %d hex chars (sha-256)", lineNo, sha256.Size*2)
		}
		if !validPrincipalName(name) {
			return nil, fmt.Errorf("line %d: invalid principal name %q (1-64 chars of [A-Za-z0-9._-])", lineNo, name)
		}
		if name == AnonymousName {
			return nil, fmt.Errorf("line %d: principal name %q is reserved", lineNo, AnonymousName)
		}
		var lim Limits
		for _, opt := range fields[2:] {
			if err := parseLimitOption(&lim, opt); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		if _, dup := seen[rawHash]; dup {
			return nil, fmt.Errorf("line %d: duplicate key hash", lineNo)
		}
		seen[rawHash] = lineNo
		p := byName[name]
		if p == nil {
			p = &Principal{Name: name, Limits: lim}
			byName[name] = p
		} else if p.Limits != lim {
			return nil, fmt.Errorf("line %d: principal %q redefined with different limits", lineNo, name)
		}
		var hash [sha256.Size]byte
		copy(hash[:], hb)
		out = append(out, keyEntry{hash: hash, principal: p})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read keys: %w", err)
	}
	return out, nil
}

// parseLimitOption applies one key=value limit option to lim.
func parseLimitOption(lim *Limits, opt string) error {
	k, v, ok := strings.Cut(opt, "=")
	if !ok {
		return fmt.Errorf("malformed option %q (want key=value)", opt)
	}
	switch k {
	case "rate":
		f, ok := parseAmount(v)
		if !ok {
			return fmt.Errorf("bad rate %q", v)
		}
		lim.RatePerSec = f
	case "burst":
		f, ok := parseAmount(v)
		if !ok {
			return fmt.Errorf("bad burst %q", v)
		}
		lim.Burst = f
	case "inflight":
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("bad inflight %q", v)
		}
		lim.MaxInFlight = n
	case "max-priority":
		c, err := sched.ParseClass(v)
		if err != nil {
			return fmt.Errorf("bad max-priority %q", v)
		}
		lim.MaxClass = c
	default:
		return fmt.Errorf("unknown option %q", k)
	}
	return nil
}

// parseAmount parses a rate or burst: a finite, non-negative number.
// NaN would make a principal silently unlimited (or shed it forever) and
// break the JSON rendering of the quota stats, as would ±Inf.
func parseAmount(v string) (float64, bool) {
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil && f >= 0 && !math.IsInf(f, 1)
}

// validPrincipalName reports whether name is 1–64 characters of
// [A-Za-z0-9._-] — the alphabet ssyncd accepts in an inbound
// X-Request-ID — so names are safe as metric labels, log fields and
// header payloads.
func validPrincipalName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// HashKey returns the lowercase hex SHA-256 of an API key — the form
// keys are stored in the keys file.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// KeySetStats describes the loaded key-set generation.
type KeySetStats struct {
	// Keys is the number of loaded key entries.
	Keys int `json:"keys"`
	// LoadedAt is when the serving generation was parsed.
	LoadedAt time.Time `json:"loaded_at"`
	// ReloadErrors counts hot-reload attempts rejected for parse errors
	// (the previous generation kept serving).
	ReloadErrors uint64 `json:"reload_errors"`
	// Optional reports whether anonymous access is allowed.
	Optional bool `json:"optional"`
}

// Stats reports the authenticator's loaded key-set generation.
func (a *Authenticator) Stats() KeySetStats {
	set := a.set.Load()
	return KeySetStats{
		Keys:         len(set.entries),
		LoadedAt:     set.loadedAt,
		ReloadErrors: a.reloadErrors.Load(),
		Optional:     a.cfg.KeysFile == "" || a.cfg.Optional,
	}
}
