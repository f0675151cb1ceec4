package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned aaserve or aarelay process.
type server struct {
	name   string
	cmd    *exec.Cmd
	addr   string // host:port parsed from the "listening on" line
	stderr chan struct{}
	rssKB  int64 // peak RSS (VmHWM), read just before stop signals it
}

// peakRSSKB reads a live process's VmHWM from /proc. The rusage of a
// reaped child cannot be used instead: the child is forked from this
// process, and on Linux its ru_maxrss includes the pages it shared with
// the client before exec.
func peakRSSKB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// spawn starts a server binary bound to an ephemeral port, reads the
// "listening on http://ADDR" line from its stderr, then polls /readyz
// every 200µs until it answers 200. The rest of stderr (one access-log
// line per request) is drained and discarded so the pipe never blocks
// the server.
func spawn(cfg *config, name string, args ...string) (*server, error) {
	cmd := exec.Command(filepath.Join(cfg.bin, name), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.procs))
	cmd.SysProcAttr = dieWithClient()
	cmd.Stdout = io.Discard
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{name: name, cmd: cmd, stderr: make(chan struct{})}
	addrc := make(chan string, 1)
	var firstLines []string
	go func() {
		defer close(s.stderr)
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		marker := name + ": listening on http://"
		found := false
		for sc.Scan() {
			line := sc.Text()
			if found {
				continue
			}
			if i := strings.Index(line, marker); i >= 0 {
				found = true
				addrc <- strings.TrimSpace(line[i+len(marker):])
				continue
			}
			if len(firstLines) < 5 {
				firstLines = append(firstLines, line)
			}
		}
		_, _ = io.Copy(io.Discard, pipe)
		if !found {
			close(addrc)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			_ = s.stop()
			return nil, fmt.Errorf("%s exited before listening: %s", name, strings.Join(firstLines, " | "))
		}
		s.addr = addr
	case <-time.After(30 * time.Second):
		_ = s.stop()
		return nil, fmt.Errorf("%s did not print its listening line within 30s", name)
	}
	if err := waitReady(s.addr); err != nil {
		_ = s.stop()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return s, nil
}

// dieWithClient makes the kernel kill a child if this process dies
// first, so a crashed benchmark never leaves servers running.
func dieWithClient() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// control is the client for readiness polls and metric scrapes. It is
// separate from the workload's request client, and its connections are
// closed after every use so the workload never has more than one
// connection open per server.
var control = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func waitReady(addr string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := control.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("/readyz not 200 within 30s")
}

// stop records the process's peak RSS, sends SIGTERM (SIGKILL after
// 15s), lets the stderr reader drain to EOF, and reaps the process.
func (s *server) stop() error {
	if s == nil || s.cmd.Process == nil {
		return nil
	}
	s.rssKB = peakRSSKB(s.cmd.Process.Pid)
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stderr:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.stderr
	}
	return s.cmd.Wait()
}

func stopAll(ss []*server) {
	for _, s := range ss {
		_ = s.stop()
	}
}

// scrape reads the named counters from a server's Prometheus /metrics.
func scrape(addr string, names ...string) (map[string]float64, error) {
	resp, err := control.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || !want[f[0]] {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", f[0], err)
		}
		out[f[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("%s: metric %s missing from /metrics", addr, n)
		}
	}
	return out, nil
}

// newClient returns the workload's request client: at most one
// connection per host, kept alive across the closed loop. The timeout
// only bounds a hung server; no request comes near it.
func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends one request and reads the whole response.
func post(ctx context.Context, c *http.Client, url string, body io.Reader) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
