package auth

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"ssync/internal/sched"
)

// principalName is the alphabet and length a keys-file name must have.
var principalName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// FuzzParseKeys drives raw keys-file bytes through parseKeys. Parsing
// either fails, or every entry names a valid, non-reserved principal
// under a hash no other entry has, with a finite non-negative rate and
// burst, a non-negative in-flight bound and a known class cap; entries
// that share a name share one *Principal.
func FuzzParseKeys(f *testing.F) {
	deploy, err := os.ReadFile("../../deploy/auth-keys.conf")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(deploy))
	f.Add("# comment\n\n" + HashKey("alpha-key") + "  alpha  rate=5 burst=2 inflight=3 max-priority=batch\n" +
		HashKey("beta-key") + "\tbeta\n")
	f.Add(HashKey("old") + " svc rate=2\n" + HashKey("new") + " svc rate=2\n")
	f.Add(HashKey("old") + " svc rate=2\n" + HashKey("new") + " svc rate=3\n")
	for _, line := range badKeyLines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, src string) {
		entries, err := parseKeys(strings.NewReader(src))
		if err != nil {
			return
		}
		hashes := make(map[[32]byte]bool)
		byName := make(map[string]*Principal)
		for i, e := range entries {
			p := e.principal
			if !principalName.MatchString(p.Name) || p.Name == AnonymousName {
				t.Fatalf("entry %d: accepted principal name %q", i, p.Name)
			}
			if hashes[e.hash] {
				t.Fatalf("entry %d: duplicate hash %x", i, e.hash)
			}
			hashes[e.hash] = true
			lim := p.Limits
			for _, v := range []float64{lim.RatePerSec, lim.Burst} {
				if !(v >= 0) || math.IsInf(v, 1) {
					t.Fatalf("entry %d (%s): accepted rate/burst %v", i, p.Name, v)
				}
			}
			if lim.MaxInFlight < 0 {
				t.Fatalf("entry %d (%s): accepted inflight %d", i, p.Name, lim.MaxInFlight)
			}
			if _, err := sched.ParseClass(string(lim.MaxClass)); err != nil {
				t.Fatalf("entry %d (%s): accepted class %q", i, p.Name, lim.MaxClass)
			}
			if q, ok := byName[p.Name]; ok && q != p {
				t.Fatalf("entry %d: principal %q split across two values", i, p.Name)
			}
			byName[p.Name] = p
		}
	})
}
