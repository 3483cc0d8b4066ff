package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"parcost/internal/fleetproxy"
)

// The topology under test: one `parcost proxy` in front of two `parcost
// serve` processes, each hosting the whole two-machine bundle, all on
// loopback. The benchmark watches them only from outside: /proc for CPU and
// memory, /v1/healthz for readiness and cache placement, /metrics for
// counters.

type proc struct {
	name string
	url  string
	log  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
}

func spawn(name, logPath, bin string, args ...string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// The kernel kills the child if the benchmark dies first, so no server
	// outlives a crashed run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries no information
		f.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// freeAddr reserves a loopback port by binding it and releasing it for the
// server about to start.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

type fleet struct {
	proxy  *proc
	serves []*proc
	owner  map[string]*proc // the serve the proxy sends each machine's requests to first
}

func (f *fleet) procs() []*proc {
	var out []*proc
	if f.proxy != nil {
		out = append(out, f.proxy)
	}
	return append(out, f.serves...)
}

// startFleet spawns two serves and the proxy in front of them, all with the
// program's default flags. The proxy routes each machine by a hash ring over
// the backend addresses, so which serve owns which machine follows from the
// ports; startFleet draws free ports until the proxy would send aurora to
// one serve and frontier to the other. A layout left to the ports would put
// both machines on one serve in some runs and split them in others, and the
// fleet's CPU per request and throughput differ by a third between the two.
func startFleet(bin, bundle, logDir string) (*fleet, error) {
	addrs, owner, err := splitAddrs()
	if err != nil {
		return nil, err
	}
	f := &fleet{owner: map[string]*proc{}}
	for i, addr := range addrs {
		name := fmt.Sprintf("serve%d", i)
		p, err := spawn(name, filepath.Join(logDir, name+".log"), bin, "serve", "-model", bundle, "-addr", addr)
		if err != nil {
			f.stop()
			return nil, err
		}
		p.url = "http://" + addr
		f.serves = append(f.serves, p)
	}
	for m, i := range owner {
		f.owner[m] = f.serves[i]
	}
	addr, err := freeAddr()
	if err != nil {
		f.stop()
		return nil, err
	}
	p, err := spawn("proxy", filepath.Join(logDir, "proxy.log"), bin, "proxy", "-backends", strings.Join(addrs, ","), "-addr", addr)
	if err != nil {
		f.stop()
		return nil, err
	}
	p.url = "http://" + addr
	f.proxy = p
	return f, nil
}

// splitAddrs returns two free loopback addresses on which the proxy's ring
// puts the two machines on different serves, and each machine's serve index.
func splitAddrs() ([]string, map[string]int, error) {
	for try := 0; try < 64; try++ {
		a, err := freeAddr()
		if err != nil {
			return nil, nil, err
		}
		b, err := freeAddr()
		if err != nil {
			return nil, nil, err
		}
		addrs := []string{a, b}
		primary, err := primaries(addrs)
		if err != nil {
			return nil, nil, err
		}
		owner := map[string]int{}
		for m, host := range primary {
			for i, addr := range addrs {
				if host == addr {
					owner[m] = i
				}
			}
		}
		if len(owner) == len(benchMachines) && owner[benchMachines[0]] != owner[benchMachines[1]] {
			return addrs, owner, nil
		}
	}
	return nil, nil, fmt.Errorf("no pair of free ports splits the machines across the serves")
}

// primaries asks an in-process fleetproxy.Proxy over backends where it sends
// each machine's /v1/recommend first. Its transport records the host of the
// first attempt and answers at once, so nothing is dialled.
func primaries(backends []string) (map[string]string, error) {
	var mu sync.Mutex
	var first string
	answer := func(r *http.Request) (*http.Response, error) {
		mu.Lock()
		if first == "" {
			first = r.URL.Host
		}
		mu.Unlock()
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader("{}")),
			Request:    r,
		}, nil
	}
	p, err := fleetproxy.New(fleetproxy.Config{Backends: backends, Transport: roundTripFunc(answer)})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	out := map[string]string{}
	for _, m := range benchMachines {
		mu.Lock()
		first = ""
		mu.Unlock()
		body, err := json.Marshal(query{Machine: m, O: 100, V: 500, Objective: "stq"})
		if err != nil {
			return nil, err
		}
		p.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body)))
		mu.Lock()
		out[m] = first
		mu.Unlock()
	}
	return out, nil
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// stop sends SIGTERM to every process, then waits for each to exit, killing
// any that has not drained within the grace period.
func (f *fleet) stop() {
	for _, p := range f.procs() {
		if !p.exited() {
			_ = p.cmd.Process.Signal(syscall.SIGTERM) // a process that just exited is reaped below
		}
	}
	grace := time.After(15 * time.Second)
	for _, p := range f.procs() {
		select {
		case <-p.done:
		case <-grace:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// waitReady polls each serve's /v1/healthz until it answers, then the
// proxy's until it reports status "ok" (every backend reachable, every
// breaker closed).
func (f *fleet) waitReady(ctx context.Context, c *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, p := range append(append([]*proc{}, f.serves...), f.proxy) {
		for !healthy(ctx, c, p.url, p == f.proxy) {
			if p.exited() {
				return fmt.Errorf("%s exited during start-up (log: %s)", p.name, p.log)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v (log: %s)", p.name, limit, p.log)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	return nil
}

func healthy(ctx context.Context, c *http.Client, url string, needOK bool) bool {
	var h struct {
		Status string `json:"status"`
	}
	if err := getJSON(ctx, c, url+"/v1/healthz", &h); err != nil {
		return false
	}
	return !needOK || h.Status == "ok"
}

func getBody(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return data, nil
}

func getJSON(ctx context.Context, c *http.Client, url string, dst any) error {
	data, err := getBody(ctx, c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, dst)
}

// usage is a process's CPU time (user + system, all threads), minor page
// faults and peak resident set size, read from /proc.
type usage struct {
	cpu    time.Duration
	minflt int64
	hwmKB  int64
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

func readUsage(pid int) (usage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return usage{}, err
	}
	// The command name may hold spaces; the fixed fields follow its ')'.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return usage{}, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(stat[i+1:]))
	if len(fields) < 13 {
		return usage{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// fields[0] is field 3 of proc(5); minflt is field 10, utime and stime
	// are fields 14 and 15.
	mf, err0 := strconv.ParseInt(fields[7], 10, 64)
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err0 != nil || err1 != nil || err2 != nil {
		return usage{}, fmt.Errorf("malformed counters in /proc/%d/stat", pid)
	}
	u := usage{cpu: time.Duration(ut+st) * time.Second / clockTicks, minflt: mf}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return usage{}, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB"))
			if u.hwmKB, err = strconv.ParseInt(kb, 10, 64); err != nil {
				return usage{}, fmt.Errorf("malformed VmHWM in /proc/%d/status", pid)
			}
		}
	}
	return u, nil
}

// prom is one /metrics scrape. Every sample is stored under its full series
// name (metric plus labels, as printed) and added into its bare metric name,
// which therefore holds the sum over all label sets.
type prom map[string]float64

func scrapeProm(ctx context.Context, c *http.Client, url string) (prom, error) {
	data, err := getBody(ctx, c, url+"/metrics")
	if err != nil {
		return nil, err
	}
	out := prom{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		out[series] = v
		if name, _, found := strings.Cut(series, "{"); found {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// sweepSeconds is the total grid-sweep wall time a serve reports: per machine,
// the completed sweep count times the mean sweep time.
func (p prom) sweepSeconds() float64 {
	var total float64
	for _, m := range benchMachines {
		total += p[fmt.Sprintf("parcost_grid_sweeps_total{machine=%q}", m)] *
			p[fmt.Sprintf("parcost_sweep_duration_seconds{machine=%q,stat=\"mean\"}", m)]
	}
	return total
}

// procState is one process's outside view at one instant.
type procState struct {
	use  usage
	prom prom
}

// fleetState is the whole fleet at one instant, proxy first.
type fleetState []procState

func (f *fleet) snapshot(ctx context.Context, c *http.Client) (fleetState, error) {
	var out fleetState
	for _, p := range f.procs() {
		u, err := readUsage(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m, err := scrapeProm(ctx, c, p.url)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out = append(out, procState{use: u, prom: m})
	}
	return out, nil
}
