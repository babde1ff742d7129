package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// memPool is the -mem-pool the server runs with: the documented
// production configuration (docs/SERVICE.md).
const memPool = "256M"

// procs owns everything a run leaves outside its own memory: the child
// servers and the scratch directory. stop is safe to call from the
// signal handler and from a deferred call at once, and is what every
// exit path goes through.
type procs struct {
	mu      sync.Mutex
	live    map[*server]struct{}
	scratch string
}

func newProcs(scratch string) *procs {
	return &procs{live: map[*server]struct{}{}, scratch: scratch}
}

// stop kills every live server, waits for each to end, and removes the
// scratch directory.
func (p *procs) stop() {
	p.mu.Lock()
	live := make([]*server, 0, len(p.live))
	for s := range p.live {
		live = append(live, s)
	}
	p.mu.Unlock()
	for _, s := range live {
		s.kill()
	}
	if p.scratch != "" {
		os.RemoveAll(p.scratch)
	}
}

// server is one nrad child process.
type server struct {
	owner    *procs
	cmd      *exec.Cmd
	httpAddr string
	lineAddr string
	stderr   bytes.Buffer
	exited   chan struct{} // closed once Wait returned
	waitErr  error
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// launch starts nrad on dir in the production configuration and returns
// once /healthz answers 200, with the time that took: process start,
// segment load, WAL replay, start-up ANALYZE, listeners.
func (p *procs) launch(nradBin, dir string) (*server, time.Duration, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	lineAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	s := &server{owner: p, httpAddr: httpAddr, lineAddr: lineAddr, exited: make(chan struct{})}
	s.cmd = exec.Command(nradBin, "-dir", dir, "-mem-pool", memPool,
		"-addr", httpAddr, "-line-addr", lineAddr)
	s.cmd.Stderr = &s.stderr
	// Backstop for exit paths no Go code runs on (SIGKILL of the harness,
	// a fatal runtime error): the kernel kills the child when the harness
	// thread that started it dies.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start nrad: %w", err)
	}
	p.mu.Lock()
	p.live[s] = struct{}{}
	p.mu.Unlock()
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			p.forget(s)
			return nil, 0, fmt.Errorf("nrad exited during start-up: %v\n%s", s.waitErr, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("nrad not healthy after 60s\n%s", s.stderr.String())
		}
	}
}

func (p *procs) forget(s *server) {
	p.mu.Lock()
	delete(p.live, s)
	p.mu.Unlock()
}

// kill ends the server with SIGKILL — a crash, as far as its data
// directory is concerned — and waits until it is gone.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.owner.forget(s)
}

// drain ends the server the way an operator would: SIGTERM, then wait
// for the drain sequence (stop admitting, finish in-flight statements,
// checkpoint the WAL) to exit 0.
func (s *server) drain() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("nrad did not drain within 30s of SIGTERM")
	}
	s.owner.forget(s)
	if s.waitErr != nil {
		return fmt.Errorf("nrad drain: %v\n%s", s.waitErr, s.stderr.String())
	}
	return nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux configuration Go supports.
const clockTick = 100

// cpuMS returns the server's user+system CPU time so far.
func (s *server) cpuMS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// peakRSSMB returns the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// buildNrad compiles cmd/nrad into the build directory. The go command
// is incremental, so only the first call in a checkout pays for it.
func buildNrad(root, buildDir string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir, "nrad")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nrad")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/nrad: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
