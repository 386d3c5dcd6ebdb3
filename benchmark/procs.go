package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicksPerSecond is USER_HZ: Linux reports utime and stime in
// /proc/<pid>/stat in this unit on every architecture Go supports.
const clockTicksPerSecond = 100

// child is one real server binary run as a child process on an
// ephemeral port.
type child struct {
	name   string
	cmd    *exec.Cmd
	addr   string        // host:port scraped from the "listening on" line
	stderr bytes.Buffer  // read only after exited is closed
	exited chan struct{} // closed once Wait has returned
}

// startChild runs bin with args and waits for its "listening on <addr>"
// line, the discovery protocol cmd/serve and cmd/gateway share, and then
// for /readyz to answer 200. On any error the child is already stopped.
func startChild(ctx context.Context, name, bin string, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		// Read to EOF so the child never blocks on a full pipe, then
		// reap it: Wait must follow the last read of the pipe.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		_ = c.cmd.Wait() // exit status is irrelevant: stop() kills on purpose
		close(c.exited)
	}()
	select {
	case c.addr = <-addrCh:
	case <-c.exited:
		return nil, fmt.Errorf("%s exited before listening: %s", name, c.stderr.String())
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not print its address within 30s", name)
	case <-ctx.Done():
		c.stop()
		return nil, ctx.Err()
	}
	if err := c.waitReady(ctx); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *child) url(path string) string { return "http://" + c.addr + path }

func (c *child) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(c.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("%s exited before ready: %s", c.name, c.stderr.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within 30s", c.name)
		}
	}
}

// stop ends the child and returns once it has been reaped: SIGTERM for
// the graceful drain, SIGKILL if that takes more than five seconds.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-c.exited:
		return
	case <-time.After(5 * time.Second):
	}
	_ = c.cmd.Process.Kill()
	<-c.exited
}

// cpuSeconds is the child's user + system CPU time so far.
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU reads utime + stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces, so fields are counted from
// the closing parenthesis.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("procs: malformed stat line")
	}
	fields := strings.Fields(stat[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, errors.New("procs: short stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("procs: non-numeric cpu fields in stat line")
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// peakRSSMB is the high-water mark of a process's resident set.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("procs: VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("procs: no VmHWM line")
}

// selfCPUSeconds is this process's own user + system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// scrape reads a child's /metrics into series name (with labels) →
// value. Comment lines are skipped.
func (c *child) scrape() (map[string]float64, error) {
	resp, err := http.Get(c.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(raw)), nil
}

func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
