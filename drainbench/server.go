package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one drainnet-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	log    *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// setupTimeout bounds one server start, checkpoint load to first ready
// health check.
const setupTimeout = 60 * time.Second

// startServer execs drainnet-serve with args on a free loopback port and
// returns once /v1/healthz answers 200, with the time that took.
func startServer(bin string, args []string, logPath string) (*server, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(maxProcs()))
	// A server must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("drainnet-serve exited during setup (%v); log %s:\n%s", s.err, logPath, tail(logPath))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > setupTimeout {
			s.stop()
			return nil, 0, fmt.Errorf("drainnet-serve not ready after %v; log %s", setupTimeout, logPath)
		}
	}
}

// stop drains the server with SIGTERM, escalating to SIGKILL after 20 s,
// and waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
}

// peakRSSMB reads the server's high-water resident set size (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// cpuSeconds is the server's user+system CPU time so far (clock ticks
// of 1/100 s, the Linux USER_HZ).
func (s *server) cpuSeconds() (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(buf[strings.LastIndexByte(string(buf), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

func (s *server) getJSON(path string, v any) error {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *server) getText(path string) (string, error) {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(b), err
}

// postJSON posts v and decodes the reply into out, returning the status
// and the Location header.
func (s *server) postJSON(path string, v, out any) (int, string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, "", err
	}
	resp, err := http.Post(s.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, "", fmt.Errorf("POST %s: decode reply: %w", path, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Location"), nil
}

// hostCPU reads the host's cumulative busy and steal jiffies from
// /proc/stat: steal is time the hypervisor ran something else while a
// vCPU of this machine wanted to run.
func hostCPU() (busy, steal float64, err error) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat: %q", line)
	}
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return 0, 0, err
		}
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], nil
}

// maxProcs is the GOMAXPROCS every process of the benchmark runs with:
// the inherited setting, never above the CPUs the host has.
func maxProcs() int {
	n := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 && v < n {
		n = v
	}
	return n
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}
