package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/engine"
	"ssync/internal/pass"
)

// strictBodyCases are /v2/compile bodies on the edge of the strict
// decoder: trailing data after the JSON value and unknown fields are
// refused, trailing whitespace is not. ok is whether a replica compiles
// the body (200, else 400) and the router keys it.
var strictBodyCases = []struct {
	name string
	body string
	ok   bool
}{
	{"trailing garbage", `{"benchmark":"BV_4","topology":"G-2x2"} trailing-garbage`, false},
	{"second value", `{"benchmark":"BV_4","topology":"G-2x2"} {"benchmark":"QFT_8"}`, false},
	{"unknown field", `{"benchmark":"BV_4","topology":"G-2x2","bogus":1}`, false},
	{"trailing newline", "{\"benchmark\":\"BV_4\",\"topology\":\"G-2x2\"}\n", true},
}

// TestReplicaAndRouterDecodeAlike posts each strict-decoder case to a
// replica and hands it to the router's key function: a replica refuses
// exactly the bodies the router cannot key, and for a body it compiles
// the router's key is the key the replica cached under.
func TestReplicaAndRouterDecodeAlike(t *testing.T) {
	ts := testServer(t)
	for _, tc := range strictBodyCases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v2/compile", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got compileResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			want := http.StatusBadRequest
			if tc.ok {
				want = http.StatusOK
			}
			if resp.StatusCode != want {
				t.Fatalf("replica status %d (%s), want %d", resp.StatusCode, got.Error, want)
			}
			k, keyed := routerRequestKey(http.MethodPost, "/v2/compile", []byte(tc.body))
			if keyed != tc.ok {
				t.Fatalf("router keyed=%v, want %v", keyed, tc.ok)
			}
			if keyed && engine.Key(k).String() != got.Key {
				t.Errorf("router key %x, replica key %s", k, got.Key)
			}
		})
	}
}

// expandingQASMBody is a 95-byte /v2/compile body whose inline QASM
// broadcasts three gates over a 2^20-qubit register: 3,145,728 gates if
// the parser expanded it in full.
const expandingQASMBody = `{"qasm":"OPENQASM 2.0;\nqreg q[1048576];\nh q;\nh q;\nh q;\n","topology":"G-2x3","capacity":17}`

// TestExpandingQASMBodyRefusedFast: the router keys a body on its
// request goroutine with no worker slot, and a replica parses it before
// its cache probe. Neither may expand a few bytes into millions of
// gates: the router gives up on the key within 100ms, and the replica
// answers 400.
func TestExpandingQASMBodyRefusedFast(t *testing.T) {
	start := time.Now()
	_, keyed := routerRequestKey(http.MethodPost, "/v2/compile", []byte(expandingQASMBody))
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("router key took %v, want under 100ms", took)
	}
	if keyed {
		t.Error("router keyed a body whose QASM exceeds its gate budget")
	}
	ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v2/compile", "application/json", strings.NewReader(expandingQASMBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got compileResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(got.Error, "gate limit") {
		t.Errorf("replica answered %d (%s), want 400 with the gate-limit error", resp.StatusCode, got.Error)
	}
}

// TestOversizedBodyIs413: a body over maxRequestBytes is a 413 whether
// the excess is inside the JSON value or trailing whitespace after it.
func TestOversizedBodyIs413(t *testing.T) {
	ts := testServer(t)
	valid := `{"benchmark":"BV_4","topology":"G-2x2"}`
	for name, body := range map[string]string{
		"value":    `{"qasm":"` + strings.Repeat("x", maxRequestBytes) + `","topology":"G-2x2"}`,
		"trailing": valid + strings.Repeat(" ", maxRequestBytes),
	} {
		resp, err := http.Post(ts.URL+"/v2/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", name, resp.StatusCode)
		}
	}
}

// compileBodySeeds is FuzzCompileBody's seed corpus: the refused bodies
// of TestCompileV2Validation and the strict-decoder cases, one valid body
// per built-in compiler and per explicit route pipeline, and every QASM
// test program wrapped as an inline-QASM request.
func compileBodySeeds(f *testing.F) [][]byte {
	var reqs []compileRequest
	reqs = append(reqs, invalidCompileRequests...)
	for _, name := range engine.Compilers() {
		reqs = append(reqs, compileRequest{Benchmark: "QFT_8", Topology: "G-2x3", Compiler: name})
	}
	for _, route := range []string{pass.RouteSSync, pass.RouteMurali, pass.RouteDai} {
		reqs = append(reqs, pipelineWireRequest(route))
	}
	files, err := filepath.Glob("../../internal/qasm/testdata/*.qasm")
	if err != nil || len(files) == 0 {
		f.Fatalf("qasm testdata: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		reqs = append(reqs, compileRequest{QASM: string(src), Topology: "G-2x2"})
	}
	var seeds [][]byte
	for _, r := range reqs {
		raw, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, raw)
	}
	for _, tc := range strictBodyCases {
		seeds = append(seeds, []byte(tc.body))
	}
	return seeds
}

// FuzzCompileBody takes raw /v2/compile bytes through the strict decoder,
// the shared wire-to-engine conversion and engine.RequestKey — no worker
// slot, no compile. Nothing may panic, and the router's key function must
// key the body exactly when all three succeed on a non-portfolio body,
// with RequestKey's key.
func FuzzCompileBody(f *testing.F) {
	for _, seed := range compileBodySeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want cluster.Key
		wantOK := false
		var wire compileRequest
		if decodeStrict(bytes.NewReader(body), &wire) == nil && !wire.Portfolio {
			req, err := engineRequest(wire, func(build func() error) error { return build() })
			if err == nil {
				if k, err := engine.RequestKey(req); err == nil {
					want, wantOK = cluster.Key(k), true
				}
			}
		}
		got, ok := routerRequestKey(http.MethodPost, "/v2/compile", body)
		if ok != wantOK {
			t.Fatalf("router keyed=%v, decode/convert/key succeeded=%v", ok, wantOK)
		}
		if got != want {
			t.Fatalf("router key %x, RequestKey %x", got, want)
		}
	})
}
