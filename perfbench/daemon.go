package main

// Daemon lifecycle and the daemon-side measurements: exec, readiness,
// per-process CPU and peak RSS from /proc, and /metrics scrapes.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Fixed loopback ports. Fleet replicas must keep the same URLs on every
// run: the coordinator's ring hashes the URL, so ephemeral ports would
// reshuffle shard ownership from run to run. The ports were picked once
// and are not chosen to balance or unbalance the ring.
//
// They lie below Linux's default ephemeral range (32768–60999). A port
// inside it can be taken before the daemon binds it: the readiness
// poll dials the port while nothing listens yet, and when the kernel
// hands that dial the same port as its source, the socket connects to
// itself and holds the port, so the daemon's bind fails.
const (
	singlePort = 27310
	coordPort  = 27320
	replica1   = 27321
	replica2   = 27322
)

// daemon is one running heteromixd process.
type daemon struct {
	name string
	addr string // host:port
	cmd  *exec.Cmd
	done chan struct{}
}

func (d *daemon) url() string { return "http://" + d.addr }

// fleet is the set of daemons one workload drives; entry is the one the
// load generator talks to, replicas are the coordinator's shard
// replicas (empty for single-node workloads).
type fleet struct {
	entry    *daemon
	replicas []*daemon
}

func (f *fleet) all() []*daemon { return append([]*daemon{f.entry}, f.replicas...) }

// startDaemon execs one heteromixd and returns without waiting for
// readiness.
func startDaemon(bin, name string, port int, extra ...string) (*daemon, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	if err := portFree(addr); err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	// A daemon must not outlive the benchmark, even one killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, addr: addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we signalled carries nothing
		close(d.done)
	}()
	return d, nil
}

// portFree fails when something already listens on addr, so a stray
// daemon from another run is reported instead of silently measured.
func portFree(addr string) error {
	c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
	if err != nil {
		return nil
	}
	c.Close()
	return fmt.Errorf("%s is already in use", addr)
}

// stop sends SIGTERM and waits for the process to exit, killing it
// after a grace period.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	for _, d := range f.all() {
		d.stop()
	}
}

// waitReady polls every daemon's /readyz until each answers 200.
func waitReady(ds []*daemon, timeout time.Duration) error {
	cl := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for _, d := range ds {
		for {
			select {
			case <-d.done:
				return fmt.Errorf("%s exited during start-up", d.name)
			default:
			}
			resp, err := cl.Get(d.url() + "/readyz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v", d.name, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	cl.CloseIdleConnections()
	return nil
}

// startFleet starts the daemons a workload needs and returns the
// set-up time: exec until every /readyz answers 200.
func startFleet(bin string, sharded bool) (*fleet, time.Duration, error) {
	start := time.Now()
	f := &fleet{}
	var err error
	if !sharded {
		if f.entry, err = startDaemon(bin, "heteromixd", singlePort); err != nil {
			return nil, 0, err
		}
	} else {
		var urls []string
		for _, p := range []int{replica1, replica2} {
			d, err := startDaemon(bin, "replica:"+strconv.Itoa(p), p)
			if err != nil {
				f.stop()
				return nil, 0, err
			}
			f.replicas = append(f.replicas, d)
			urls = append(urls, d.url())
		}
		if f.entry, err = startDaemon(bin, "coordinator", coordPort, "-replicas", strings.Join(urls, ",")); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	if err := waitReady(f.all(), 60*time.Second); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's CPU times; it is
// 100 on every Linux configuration Go supports without cgo.
const clockTick = 100

// procCPU returns a process's user+sys CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// resume after the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// cpuTotal sums procCPU over the fleet.
func (f *fleet) cpuTotal() (time.Duration, error) {
	var sum time.Duration
	for _, d := range f.all() {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		sum += c
	}
	return sum, nil
}

// procSample is one reading of the fleet's cumulative CPU time and
// summed resident set size.
type procSample struct {
	t     time.Time
	cpu   time.Duration
	rssMB float64
	// steal is the machine's cumulative steal time over all CPUs: time
	// the hypervisor ran something else while this machine's CPUs were
	// runnable.
	steal time.Duration
}

// stealTime reads the machine-wide steal time from /proc/stat.
func stealTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("malformed /proc/stat")
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat steal: %w", err)
	}
	return time.Duration(v) * time.Second / clockTick, nil
}

// rssMB sums the fleet's resident set sizes from /proc/<pid>/statm.
func (f *fleet) rssMB() (float64, error) {
	var pages int64
	for _, d := range f.all() {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/statm")
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		fs := strings.Fields(string(b))
		if len(fs) < 2 {
			return 0, fmt.Errorf("%s: short statm", d.name)
		}
		n, err := strconv.ParseInt(fs[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: statm: %w", d.name, err)
		}
		pages += n
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// sample reads the fleet's CPU and RSS every period into *out until the
// returned stop function is called; stop waits for the sampler to exit
// and reports its first error.
func (f *fleet) sample(every time.Duration, out *[]procSample) (stop func() error) {
	quit := make(chan struct{})
	done := make(chan error, 1)
	read := func() error {
		c, err := f.cpuTotal()
		if err != nil {
			return err
		}
		r, err := f.rssMB()
		if err != nil {
			return err
		}
		st, err := stealTime()
		if err != nil {
			return err
		}
		*out = append(*out, procSample{t: time.Now(), cpu: c, rssMB: r, steal: st})
		return nil
	}
	go func() {
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			if err := read(); err != nil {
				done <- err
				return
			}
			select {
			case <-quit:
				done <- read()
				return
			case <-tk.C:
			}
		}
	}()
	return func() error {
		close(quit)
		return <-done
	}
}

// scrape is one /metrics snapshot: series line key ("name{labels}") to
// value.
type scrape map[string]float64

func getMetrics(ctx context.Context, d *daemon) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url()+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of a metric family (all label sets).
func (s scrape) sum(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta is after-minus-before per series.
func (s scrape) delta(before scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// histQuantile estimates quantile q of a histogram family from its
// cumulative buckets (upper bound of the bucket holding the rank).
func (s scrape) histQuantile(name string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + "_bucket{le=\""
	for k, v := range s {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, "\"}"), 64)
			if err != nil {
				continue // +Inf
			}
			bs = append(bs, bucket{le, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := s[name+"_count"]
	if total <= 0 {
		return 0
	}
	for _, b := range bs {
		if b.cum >= q*total {
			return b.le
		}
	}
	return 0
}
