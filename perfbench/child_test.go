package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

// alive reports whether pid is a live (not zombie) process.
func alive(pid int) bool {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// the state follows the parenthesized command name
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 || i+2 >= len(s) {
		return false
	}
	state := s[i+2]
	return state != 'Z' && state != 'X'
}

// waitDead polls until pid is gone or the deadline passes.
func waitDead(pid int, within time.Duration) bool {
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if !alive(pid) {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return !alive(pid)
}

func startSleep(t *testing.T) *child {
	t.Helper()
	c, err := startChild("sleep", []string{"60"}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !alive(c.cmd.Process.Pid) {
		t.Fatal("child not running after start")
	}
	return c
}

func TestCloseKillsAndWaits(t *testing.T) {
	c := startSleep(t)
	c.Close()
	if !c.exited() {
		t.Fatal("Close returned before the child was reaped")
	}
	if alive(c.cmd.Process.Pid) {
		t.Fatal("child still alive after Close")
	}
	c.Close() // idempotent
}

func TestPanicStillKillsChild(t *testing.T) {
	var c *child
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected a panic")
			}
		}()
		c = startSleep(t)
		defer c.Close()
		panic("benchmark failure")
	}()
	if !c.exited() || alive(c.cmd.Process.Pid) {
		t.Fatal("child survived a panic in its owner")
	}
}

// A benchmark process that dies without running any deferred cleanup — a
// panic on another goroutine, or SIGKILL — must still take its server with
// it: the kernel delivers Pdeathsig to the child.
func TestChildDiesWithBenchmark(t *testing.T) {
	if os.Getenv("PERFBENCH_HELPER") == "1" {
		c, err := startChild("sleep", []string{"60"}, os.TempDir())
		if err != nil {
			fmt.Println("error", err)
			os.Exit(2)
		}
		fmt.Println(c.cmd.Process.Pid)
		done := make(chan struct{})
		go func() { panic("unrecovered panic on another goroutine") }()
		<-done
	}
	helper := exec.Command(os.Args[0], "-test.run=^TestChildDiesWithBenchmark$")
	helper.Env = append(os.Environ(), "PERFBENCH_HELPER=1")
	out, err := helper.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := helper.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil {
		t.Fatalf("helper printed no pid: %v", err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil {
		t.Fatalf("helper: %q", line)
	}
	if err := helper.Wait(); err == nil {
		t.Fatal("helper exited cleanly; it should have crashed")
	}
	if !waitDead(pid, 5*time.Second) {
		t.Fatalf("server child %d outlived the crashed benchmark", pid)
	}
}

func TestTailBufferKeepsLastBytes(t *testing.T) {
	tb := &tailBuffer{max: 8}
	for i := 0; i < 5; i++ {
		fmt.Fprintf(tb, "line%d\n", i)
	}
	if got := tb.String(); got != "3\nline4\n" {
		t.Fatalf("tail %q", got)
	}
}
