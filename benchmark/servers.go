package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env locates the repository the benchmark measures and the directory
// its build outputs go to (inside the checkout, never a system temp
// dir: the benchmark reads and writes only below root).
type env struct {
	root   string // repository root (holds BENCHMARK.json and cmd/xqd)
	build  string // root/.bench_build
	outDir string // root/benchmark/out: traces, tables, server logs
	xqd    string // path of the built xqd binary
}

// newEnv resolves the repository root: the -root flag, else the nearest
// ancestor of the working directory that holds BENCHMARK.json.
func newEnv(root string) (*env, error) {
	if root == "" {
		dir, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		for {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				root = dir
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return nil, fmt.Errorf("no BENCHMARK.json in any ancestor of the working directory; pass -root")
			}
			dir = parent
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{
		root:   root,
		build:  filepath.Join(root, ".bench_build"),
		outDir: filepath.Join(root, "benchmark", "out"),
	}
	for _, d := range []string{filepath.Join(e.build, "bin"), e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildXqd compiles cmd/xqd from the checkout's source. It is not part
// of setup_s: a deployment builds once and starts many times.
func (e *env) buildXqd() error {
	e.xqd = filepath.Join(e.build, "bin", "xqd")
	cmd := exec.Command("go", "build", "-o", e.xqd, "./cmd/xqd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/xqd: %v\n%s", err, out)
	}
	return nil
}

// server is one spawned xqd process (a shard engine or a router).
type server struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *os.File
}

// freePort asks the kernel for an unused TCP port. The listener is
// closed before xqd binds it, which is racy in principle; nothing else
// on a benchmark host is allocating ports at that moment.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts xqd with args on a fresh port and waits until it answers
// GET /stats.
func (e *env) spawn(name string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.outDir, "xqd-"+name+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(e.xqd, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting xqd %s: %w", name, err)
	}
	s := &server{name: name, base: "http://" + addr, cmd: cmd, log: logf}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("xqd %s did not answer /stats within 10s (log: %s)", name, logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the process with SIGTERM (xqd drains and exits), escalating
// to SIGKILL, and returns once it has been reaped.
func (s *server) stop() {
	if s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below still reaps it
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // a non-zero exit after SIGTERM is not the benchmark's failure
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", f.Name())
}

// topology is the set of processes serving one workload: either a
// single xqd, or a router in front of two shard xqds.
type topology struct {
	front  *server   // where clients send requests
	shards []*server // engines behind a router (empty for single-node)
}

// all lists every process of the topology.
func (t *topology) all() []*server {
	if t.front == nil {
		return t.shards
	}
	return append([]*server{t.front}, t.shards...)
}

// engines lists the processes that hold documents and serve /watch.
func (t *topology) engines() []*server {
	if len(t.shards) > 0 {
		return t.shards
	}
	return []*server{t.front}
}

func (t *topology) stop() {
	for _, s := range t.all() {
		s.stop()
	}
}

// peakRSSMB sums VmHWM over the topology's processes.
func (t *topology) peakRSSMB() (float64, error) {
	var sum float64
	for _, s := range t.all() {
		mb, err := s.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// start spawns the processes a workload needs: one xqd, or two shards
// and a router with -replicas 2 in front of them.
func (e *env) start(routed bool) (*topology, error) {
	if !routed {
		s, err := e.spawn("node")
		if err != nil {
			return nil, err
		}
		return &topology{front: s}, nil
	}
	t := &topology{}
	args := []string{"-router", "-replicas", "2"}
	for i := 0; i < 2; i++ {
		name := "s" + strconv.Itoa(i)
		s, err := e.spawn(name)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.shards = append(t.shards, s)
		args = append(args, "-shard", name+"="+s.base)
	}
	front, err := e.spawn("router", args...)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.front = front
	return t, nil
}
