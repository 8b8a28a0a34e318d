package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The system under test is one cmd/gateway in front of three
// cmd/streamd, each a separate process on a fixed loopback address, so
// ring placement is the same on every run. Only the topology flags are
// set (addresses, data dirs, -replicas 2); everything else keeps its
// production default.
const (
	gatewayAddr = "127.0.0.1:18790"
	replicas    = 2
)

var shardAddrs = []string{"127.0.0.1:18791", "127.0.0.1:18792", "127.0.0.1:18793"}

func shardURLs() []string {
	out := make([]string, len(shardAddrs))
	for i, a := range shardAddrs {
		out[i] = "http://" + a
	}
	return out
}

// proc is one started SUT process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// sut is a running gateway plus shards.
type sut struct {
	gw     *proc
	shards []*proc
}

// procs lists every process, gateway first.
func (s *sut) procs() []*proc {
	out := []*proc{}
	if s.gw != nil {
		out = append(out, s.gw)
	}
	return append(out, s.shards...)
}

// startSUT launches three streamd and a gateway from binDir, with fresh
// data dirs under runDir, and returns once every /v1/healthz answers.
// gomaxprocs is passed through the environment (the Go default, the
// number of usable CPUs, made explicit so the result can record it).
func startSUT(c *http.Client, binDir, runDir string, gomaxprocs int) (*sut, error) {
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	s := &sut{}
	env := append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	for i, addr := range shardAddrs {
		url := "http://" + addr
		dir := filepath.Join(runDir, fmt.Sprintf("shard%d", i))
		p, err := launch(fmt.Sprintf("streamd%d", i), url, filepath.Join(binDir, "streamd"), runDir, env,
			"-listen", addr, "-data-dir", dir, "-advertise", url)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.shards = append(s.shards, p)
	}
	for _, p := range s.shards {
		if err := waitHealthy(c, p); err != nil {
			s.stop()
			return nil, err
		}
	}
	gw, err := launch("gateway", "http://"+gatewayAddr, filepath.Join(binDir, "gateway"), runDir, env,
		"-listen", gatewayAddr, "-backends", strings.Join(shardURLs(), ","), "-replicas", strconv.Itoa(replicas))
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gw = gw
	if err := waitHealthy(c, gw); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func launch(name, url, bin, logDir string, env []string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func waitHealthy(c *http.Client, p *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (%v); see its log", p.name, p.err)
		default:
		}
		resp, err := c.Get(p.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy within 30s", p.name)
}

// stop terminates every process (gateway first) and waits for each to
// exit: SIGTERM for a graceful drain, SIGKILL after a grace period.
func (s *sut) stop() {
	for _, p := range s.procs() {
		p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill() //nolint:errcheck
			<-p.done
		}
	}
}

// kill ends every process at once; used between set-up repetitions,
// whose state is thrown away.
func (s *sut) kill() {
	for _, p := range s.procs() {
		p.cmd.Process.Kill() //nolint:errcheck
	}
	for _, p := range s.procs() {
		<-p.done
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTick = 100

// cpuMS returns a process's user+system CPU time in milliseconds.
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return (ut + st) * 1000 / clockTick, nil
}

// statusKB reads a "Key: N kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line[len(key)+1:])
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// cpu returns each process's CPU milliseconds, keyed by name.
func (s *sut) cpu() (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range s.procs() {
		ms, err := cpuMS(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[p.name] = ms
	}
	return out, nil
}

// peakRSSMB sums VmHWM over the SUT processes.
func (s *sut) peakRSSMB() (float64, error) {
	var kb float64
	for _, p := range s.procs() {
		v, err := statusKB(p.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return kb / 1024, nil
}

// scrape fetches /metrics from the gateway and from the shards (merged).
func (s *sut) scrape(c *http.Client) (gw, shards Scrape, err error) {
	if gw, err = scrapeURL(c, s.gw.url); err != nil {
		return nil, nil, err
	}
	var parts []Scrape
	for _, p := range s.shards {
		sc, err := scrapeURL(c, p.url)
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, sc)
	}
	return gw, Merge(parts...), nil
}

// stealMS reads the host's stolen CPU time from /proc/stat (0 when
// unavailable).
func stealMS() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v * 1000 / clockTick
}
