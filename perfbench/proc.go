package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a program the benchmark runs beside itself (hccmf-ps,
// hccmf-serve, the input generator). stop always waits for it to exit.
type child struct {
	cmd    *exec.Cmd
	out    bytes.Buffer
	done   chan struct{}
	err    error
	start  time.Time
	exited bool
}

func startChild(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Stdout = &c.out
	c.cmd.Stderr = &c.out
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// wait blocks until the child exits or the timeout passes.
func (c *child) wait(timeout time.Duration) error {
	select {
	case <-c.done:
		if c.err != nil {
			return fmt.Errorf("%s: %v: %s", c.cmd.Path, c.err, strings.TrimSpace(c.out.String()))
		}
		return nil
	case <-time.After(timeout):
		c.kill()
		return fmt.Errorf("%s: still running after %v", c.cmd.Path, timeout)
	}
}

// stop asks the child to drain with SIGTERM, kills it if it has not exited
// within five seconds, and returns once it has exited. The output read
// afterwards is complete.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		c.kill()
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// output returns what the child printed; call it only after it exited.
func (c *child) output() string {
	<-c.done
	return c.out.String()
}

// waitReadyFile polls for a ready-file the child writes once it serves,
// and returns its first line. It fails fast if the child exits first.
func waitReadyFile(c *child, path string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if raw, err := os.ReadFile(path); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			return strings.TrimSpace(string(raw)), nil
		}
		select {
		case <-c.done:
			return "", fmt.Errorf("%s exited before it was ready: %v: %s", c.cmd.Path, c.err,
				strings.TrimSpace(c.out.String()))
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s not ready after %v", c.cmd.Path, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// peakRSSMB reads VmHWM (peak resident set) of a process ("self" or a
// pid) in MiB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS resets this process's VmHWM to its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procCPUSeconds reads a child's user+system CPU time from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}
