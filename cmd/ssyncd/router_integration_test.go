package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ssync/internal/cluster"
	"ssync/internal/engine"
)

// The cluster integration tests run the real thing end to end, minus
// only the network between containers: three in-process replicas (full
// ssyncd handler stacks over engines mounting ONE shared cache
// directory) behind a cluster.Router keyed by routerRequestKey — the
// exact wiring -mode=router uses.

// clusterReplica is one in-process replica: its engine (for stats
// assertions) and the httptest server exposing its full route surface.
type clusterReplica struct {
	srv *server
	hts *httptest.Server
}

func newClusterReplica(t *testing.T, sharedDir string) *clusterReplica {
	t.Helper()
	eng, err := engine.Open(engine.Options{
		CacheDir:    sharedDir,
		SharedCache: true,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, 4, time.Minute)
	hts := httptest.NewServer(srv.routes())
	t.Cleanup(hts.Close)
	return &clusterReplica{srv: srv, hts: hts}
}

func newClusterFleet(t *testing.T, n int) (string, []*clusterReplica, *cluster.Router, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	reps := make([]*clusterReplica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = newClusterReplica(t, dir)
		urls[i] = reps[i].hts.URL
	}
	router, err := cluster.New(cluster.Options{
		Replicas:       urls,
		KeyFn:          routerRequestKey,
		HealthInterval: 25 * time.Millisecond,
		DownAfter:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	front := httptest.NewServer(router)
	t.Cleanup(front.Close)
	return dir, reps, router, front
}

// compileVia posts one /v2/compile body through the front end and
// decodes the response; non-200 statuses are returned as errors.
func compileVia(front, body string) (compileResponse, error) {
	resp, err := http.Post(front+"/v2/compile", "application/json", strings.NewReader(body))
	if err != nil {
		return compileResponse{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return compileResponse{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return compileResponse{}, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var out compileResponse
	if err := json.Unmarshal(b, &out); err != nil {
		return compileResponse{}, err
	}
	return out, nil
}

// TestClusterSharedDiskServesPeerResults: a request compiled by its home
// replica is, after that replica dies, served by another replica from
// the shared disk tier — with zero passes run by the survivor.
func TestClusterSharedDiskServesPeerResults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a replica fleet")
	}
	_, reps, router, front := newClusterFleet(t, 3)

	const body = `{"benchmark":"QFT_10","topology":"G-2x3"}`
	first, err := compileVia(front.URL, body)
	if err != nil {
		t.Fatal(err)
	}
	if first.Error != "" || first.CacheTier != "" {
		t.Fatalf("first compile: error=%q tier=%q, want a fresh miss", first.Error, first.CacheTier)
	}
	// The home replica is the one that actually compiled.
	home := -1
	for i, r := range reps {
		if r.srv.eng.Stats().Compiled > 0 {
			if home != -1 {
				t.Fatalf("replicas %d and %d both compiled one request; affinity is broken", home, i)
			}
			home = i
		}
	}
	if home == -1 {
		t.Fatal("no replica reports a compilation")
	}

	// Kill the home replica and wait for the router to notice.
	reps[home].hts.CloseClientConnections()
	reps[home].hts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		down := false
		for _, s := range router.Stats().Shards {
			if s.URL == reps[home].hts.URL && s.State == "down" {
				down = true
			}
		}
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never marked the killed replica down: %+v", router.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	second, err := compileVia(front.URL, body)
	if err != nil {
		t.Fatalf("request after home-replica death failed: %v", err)
	}
	if second.CacheTier != "disk" {
		t.Fatalf("survivor served from tier %q, want the shared disk tier", second.CacheTier)
	}
	for i, r := range reps {
		if i == home {
			continue
		}
		if st := r.srv.eng.Stats(); st.Compiled != 0 {
			t.Fatalf("replica %d ran %d compilations serving a peer's cached result", i, st.Compiled)
		}
	}
}

// TestClusterAffinityCoalescesOnOneReplica: identical concurrent
// requests all land on one replica and coalesce there — at most one
// compilation fleet-wide.
func TestClusterAffinityCoalescesOnOneReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a replica fleet")
	}
	_, reps, _, front := newClusterFleet(t, 3)

	const body = `{"benchmark":"QFT_12","topology":"G-2x3"}`
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = compileVia(front.URL, body)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	var compiled uint64
	for _, r := range reps {
		compiled += r.srv.eng.Stats().Compiled
	}
	if compiled != 1 {
		t.Fatalf("fleet compiled %d times for one identical request, want 1 (coalescing broken by routing)", compiled)
	}
}

// TestClusterReplicaDeathMidBatchZeroFailures is the headline
// availability property: a replica killed while a stream of compiles is
// in flight costs retries and spills, never a failed client request.
func TestClusterReplicaDeathMidBatchZeroFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a replica fleet")
	}
	_, reps, _, front := newClusterFleet(t, 3)

	const (
		clients      = 4
		perClient    = 12
		killAfterReq = 8 // kill one replica once this many requests completed
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed int
		failures  []string
		killOnce  sync.Once
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// A mix of repeated and distinct circuits, so traffic hits
				// every shard and both cache tiers while the fleet degrades.
				size := 4 + 2*((c*perClient+i)%5)
				body := fmt.Sprintf(`{"benchmark":"QFT_%d","topology":"G-2x3"}`, size)
				resp, err := compileVia(front.URL, body)
				mu.Lock()
				if err != nil {
					failures = append(failures, fmt.Sprintf("client %d req %d: %v", c, i, err))
				} else if resp.Error != "" {
					failures = append(failures, fmt.Sprintf("client %d req %d: %s", c, i, resp.Error))
				}
				completed++
				kill := completed == killAfterReq
				mu.Unlock()
				if kill {
					killOnce.Do(func() {
						reps[2].hts.CloseClientConnections()
						reps[2].hts.Close()
					})
				}
			}
		}(c)
	}
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d of %d requests failed after a replica death:\n%s",
			len(failures), clients*perClient, strings.Join(failures, "\n"))
	}
}
