package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a process the benchmark started. Close kills it and waits until
// it has exited; the kernel also kills it (Pdeathsig) if the benchmark dies
// without running Close, say on a panic in another goroutine.
type child struct {
	cmd     *exec.Cmd
	out     *tailBuffer // last bytes of stdout+stderr, drained continuously
	done    chan struct{}
	waitErr error
	once    sync.Once
}

// startChild starts bin with args, draining its output into a bounded tail.
func startChild(bin string, args []string, dir string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out := &tailBuffer{max: 16 << 10}
	cmd.Stdout = out
	cmd.Stderr = out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		c.waitErr = cmd.Wait() // also waits for the output copy to finish
		close(c.done)
	}()
	return c, nil
}

// exited reports whether the process has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Close kills the process and waits for it. Safe to call more than once.
func (c *child) Close() {
	c.once.Do(func() {
		if !c.exited() {
			_ = c.cmd.Process.Kill() // fails only if it already exited
		}
		<-c.done
	})
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func (c *child) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", c.cmd.Process.Pid)
}

// cpuTicks returns the process's user plus system CPU time in clock ticks.
func (c *child) cpuTicks() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the line
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", c.cmd.Process.Pid)
	}
	var sum float64
	for _, v := range f[11:13] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum, nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.Clone(t.buf))
}

// server is a running egeria serve process.
type server struct {
	*child
	base string // http://127.0.0.1:port
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer starts `bin args... serve -addr 127.0.0.1:<port>` and waits
// for /readyz to answer 200. setup is the time from just before the process
// starts to that answer: the cold Stage-I build of every advisor.
func startServer(ctx context.Context, bin string, args []string, dir string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	base := "http://127.0.0.1:" + strconv.Itoa(port)
	argv := append(append([]string(nil), args...), "serve", "-addr", "127.0.0.1:"+strconv.Itoa(port))
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()

	start := time.Now()
	c, err := startChild(bin, argv, dir)
	if err != nil {
		return nil, 0, err
	}
	s := &server{child: c, base: base}
	for {
		if ready(hc, base) {
			return s, time.Since(start), nil
		}
		if c.exited() {
			return nil, 0, fmt.Errorf("server exited before ready: %v\n%s", c.waitErr, c.out.String())
		}
		select {
		case <-ctx.Done():
			s.Close()
			return nil, 0, fmt.Errorf("server not ready: %w\n%s", ctx.Err(), c.out.String())
		case <-time.After(time.Millisecond):
		}
	}
}

func ready(hc *http.Client, base string) bool {
	resp, err := hc.Get(base + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
