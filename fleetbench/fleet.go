package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ssync/internal/auth"
)

// fleetSpec is a workload's fleet shape.
type fleetSpec struct {
	// Replicas is the number of replica processes; nproc worker slots are
	// split evenly across them.
	Replicas int
	// Router fronts the replicas with -mode=router: API keys are checked
	// there and identities signed to the replicas.
	Router bool
	// SharedDisk gives the replicas one -cache-dir -cache-shared.
	SharedDisk bool
	// ResultCache sets each replica's -cache; 0 keeps the default.
	ResultCache int
	// StageCache sets each replica's -stage-cache; 0 keeps the default.
	StageCache int
}

// workers is each replica's -workers share of nproc.
func (s fleetSpec) workers(nproc int) int { return max(1, nproc/s.Replicas) }

// describe renders the shape for the environment record.
func (s fleetSpec) describe(nproc int) string {
	d := fmt.Sprintf("%d replica(s) x %d workers", s.Replicas, s.workers(nproc))
	if s.ResultCache > 0 {
		d += fmt.Sprintf(", -cache %d", s.ResultCache)
	}
	if s.StageCache > 0 {
		d += fmt.Sprintf(", -stage-cache %d", s.StageCache)
	}
	if s.SharedDisk {
		d += ", shared -cache-dir"
	}
	if s.Router {
		d += ", router with -auth-keys"
	}
	return d
}

const (
	// readyTimeout bounds how long a fleet process may take to answer.
	readyTimeout = 30 * time.Second
	// stopGrace is how long a process may drain after SIGTERM.
	stopGrace = 10 * time.Second
)

// proc is one running ssyncd process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string        // host:port it listens on
	done chan struct{} // closed once the process has exited and been reaped
}

func (p *proc) url() string { return "http://" + p.addr }

// startProc starts ssyncd with args, its log in dir/<name>.log, and
// returns once the process reports its listen address.
func startProc(bin, name string, args []string, dir string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The kernel kills the process should this harness die first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.done)
		defer logf.Close()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, stdout) // past an overlong line
		// The exit status adds nothing: a crash already fails requests.
		_ = cmd.Wait()
	}()
	timer := time.NewTimer(readyTimeout)
	defer timer.Stop()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening; see %s", name, logf.Name())
	case <-timer.C:
		p.stop()
		return nil, fmt.Errorf("%s reported no listen address within %s", name, readyTimeout)
	}
}

// stop sends SIGTERM, kills the process if it has not exited after
// stopGrace, and returns once it is reaped. Safe on nil and on exited
// processes.
func (p *proc) stop() {
	if p == nil {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only once it has exited
	timer := time.NewTimer(stopGrace)
	defer timer.Stop()
	select {
	case <-p.done:
	case <-timer.C:
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// vmHWM reads a process's peak resident set size in KiB.
func vmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fleet is one workload's running ssyncd processes.
type fleet struct {
	replicas []*proc
	router   *proc
	apiKey   string
}

// base is where the load goes: the router, or the only replica.
func (f *fleet) base() string {
	if f.router != nil {
		return f.router.url()
	}
	return f.replicas[0].url()
}

func (f *fleet) procs() []*proc {
	ps := append([]*proc(nil), f.replicas...)
	if f.router != nil {
		ps = append(ps, f.router)
	}
	return ps
}

// stop stops the router, then the replicas, waiting for each. Safe on a
// nil fleet.
func (f *fleet) stop() {
	if f == nil {
		return
	}
	f.router.stop()
	for _, p := range f.replicas {
		p.stop()
	}
}

// peakRSSMiB sums the fleet processes' peak resident set sizes.
func (f *fleet) peakRSSMiB() (float64, error) {
	var kib int64
	for _, p := range f.procs() {
		v, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kib += v
	}
	return float64(kib) / 1024, nil
}

// keyFile is a routed fleet's access-control material: the API key the
// load presents, the keys file holding its hash, and the secret that
// signs identities from router to replicas.
type keyFile struct{ path, key, secret string }

func writeKeyFile(dir string) (*keyFile, error) {
	k := &keyFile{
		path:   filepath.Join(dir, "auth-keys.conf"),
		key:    "fleetbench-load-key",
		secret: "fleetbench-cluster-secret",
	}
	// One principal without limits: quotas never demote the offered load.
	entry := fmt.Sprintf("%s  fleetbench\n", auth.HashKey(k.key))
	return k, os.WriteFile(k.path, []byte(entry), 0o600)
}

// replicaAddr is replica i's listen address. The router's ring places
// keys by replica URL, so fixed addresses, like a deployment's stable
// replica names, give every run the same placement; with ports the
// kernel picks, the share of the load each replica took changed from
// run to run and moved the service-mix median by a quarter. These split
// the service-mix requests 40/60 between two replicas, as evenly as a
// head key that carries half of them allows.
func replicaAddr(i int) string { return fmt.Sprintf("127.0.0.%d:18502", 11+i) }

// startFleet starts spec's processes under dir and returns once every
// one answers.
func startFleet(ctx context.Context, bin string, spec fleetSpec, nproc int, dir string, keys *keyFile) (*fleet, error) {
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{}
	started := false
	defer func() {
		if !started {
			f.stop()
		}
	}()
	probe := newClient(1, "")
	defer probe.close()
	for i := range spec.Replicas {
		args := []string{"-addr", replicaAddr(i), "-workers", strconv.Itoa(spec.workers(nproc))}
		if spec.ResultCache > 0 {
			args = append(args, "-cache", strconv.Itoa(spec.ResultCache))
		}
		if spec.StageCache > 0 {
			args = append(args, "-stage-cache", strconv.Itoa(spec.StageCache))
		}
		if spec.SharedDisk {
			args = append(args, "-cache-dir", cacheDir, "-cache-shared")
		}
		if spec.Router {
			args = append(args, "-cluster-secret", keys.secret)
		}
		p, err := startProc(bin, fmt.Sprintf("replica%d", i), args, dir)
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, p)
	}
	for _, p := range f.replicas {
		if err := waitReady(ctx, probe, p.url()+"/v2/stats", nil); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	if spec.Router {
		urls := make([]string, len(f.replicas))
		for i, p := range f.replicas {
			urls[i] = p.url()
		}
		args := []string{"-mode", "router", "-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","),
			"-auth-keys", keys.path, "-cluster-secret", keys.secret}
		p, err := startProc(bin, "router", args, dir)
		if err != nil {
			return nil, err
		}
		f.router = p
		if err := waitReady(ctx, probe, p.url()+"/cluster/stats", allShardsUp); err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		f.apiKey = keys.key
	}
	started = true
	return f, nil
}

// waitReady polls url until it answers 200 and accept (if any) likes
// the body.
func waitReady(ctx context.Context, c *client, url string, accept func([]byte) bool) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		body, err := c.get(ctx, url)
		if err == nil && (accept == nil || accept(body)) {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %s (last error: %v)", readyTimeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func allShardsUp(body []byte) bool {
	var doc struct {
		Shards []struct {
			State string `json:"state"`
		} `json:"shards"`
	}
	if json.Unmarshal(body, &doc) != nil || len(doc.Shards) == 0 {
		return false
	}
	for _, s := range doc.Shards {
		if s.State != "up" {
			return false
		}
	}
	return true
}
