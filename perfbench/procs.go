package main

import (
	"bufio"
	"bytes"
	"errors"
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

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// server is one running mwld process.
type server struct {
	addr string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *capped
	done chan struct{} // closed when the process has exited
	err  error         // exit status, valid after done
}

// capped keeps the first bytes of a process's diagnostics.
type capped struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *capped) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if room := 16<<10 - c.buf.Len(); room > 0 {
		c.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func (c *capped) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// freeAddrs reserves n distinct loopback ports and releases them for
// the servers to bind.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	out := make([]string, n)
	for i := range out {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		ls = append(ls, l)
		out[i] = l.Addr().String()
	}
	return out, nil
}

// startServer launches mwld listening on hostport with extra flags,
// the given GOMAXPROCS, and -verify always on.
func startServer(bin, hostport string, procs int, flags ...string) (*server, error) {
	args := append([]string{"-addr", hostport, "-verify"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// Take the server down with the benchmark if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{addr: "http://" + hostport, cmd: cmd, log: &capped{}, done: make(chan struct{})}
	cmd.Stdout = s.log
	cmd.Stderr = s.log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mwld: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// ready polls /healthz until it answers 200, the process dies, or the
// timeout passes.
func (s *server) ready(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("mwld at %s exited during start-up: %v\n%s", s.addr, s.err, s.log)
		default:
		}
		resp, err := c.Get(s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("mwld at %s not ready after %v\n%s", s.addr, timeout, s.log)
}

// stop interrupts the server, kills it if it has not exited after a
// grace period, and returns once the process is gone.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(os.Interrupt) // fails only if already exited
	select {
	case <-s.done:
		return
	case <-time.After(5 * time.Second):
	}
	_ = s.cmd.Process.Kill() // fails only if already exited
	<-s.done
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procCPU returns utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis with field 3.
	i := bytes.LastIndexByte(blob, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(blob[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procMem returns a memory field of /proc/<pid>/status, such as
// "VmRSS:" or "VmHWM:" (peak resident set), in MiB.
func procMem(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// fleet is the set of servers of one workload.
type fleet []*server

func (f fleet) stop() {
	var wg sync.WaitGroup
	for _, s := range f {
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			s.stop()
		}(s)
	}
	wg.Wait()
}

// cpu sums utime+stime over the fleet.
func (f fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, s := range f {
		d, err := procCPU(s.pid())
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// mem sums a procMem field over the fleet, in MiB.
func (f fleet) mem(field string) (float64, error) {
	total := 0.0
	for _, s := range f {
		m, err := procMem(s.pid(), field)
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// selfCPU is the load generator's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ready blocks until every server answers /healthz.
func (f fleet) ready() error {
	for _, s := range f {
		if err := s.ready(10 * time.Second); err != nil {
			return err
		}
	}
	return nil
}
