package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// readyPoll is the /readyz polling interval; it bounds setup_s's
	// resolution.
	readyPoll = 500 * time.Microsecond
	// bootTimeout bounds one boot of every replica.
	bootTimeout = 60 * time.Second
	// stopGrace is how long a daemon may drain after SIGTERM before SIGKILL.
	stopGrace = 10 * time.Second
	// rssEvery is the resident-set sampling interval.
	rssEvery = 250 * time.Millisecond
	// clockTicks is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
	// every Linux ABI Go supports).
	clockTicks = 100
)

// daemon is one transfusiond subprocess.
type daemon struct {
	url  string
	log  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// startDaemon execs bin serving on addr with extra flags, logging to
// logPath. The child is killed if the benchmark dies first.
func startDaemon(bin, addr, logPath string, flags ...string) (*daemon, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", addr, "-log-level", "warn"}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{url: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // a drained daemon exits 0; anything else shows in its log
		close(d.done)
	}()
	return d, nil
}

// stop sends SIGTERM, gives the daemon stopGrace to drain, then SIGKILLs it.
// It returns once the process has exited.
func (d *daemon) stop() { d.stopWithin(stopGrace) }

func (d *daemon) stopWithin(grace time.Duration) {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have just exited
	select {
	case <-d.done:
	case <-time.After(grace):
		d.cmd.Process.Kill() //nolint:errcheck // it may have just exited
		<-d.done
	}
}

// logTail returns the end of the daemon's log, for error messages.
func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.log)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(bytes.TrimSpace(data))
}

// waitReady polls each daemon's /readyz until it answers 200.
func waitReady(ctx context.Context, hc *http.Client, ds []*daemon) error {
	ctx, cancel := context.WithTimeout(ctx, bootTimeout)
	defer cancel()
	for _, d := range ds {
		for {
			select {
			case <-d.done:
				return fmt.Errorf("daemon %s exited during boot: %s", d.url, d.logTail())
			default:
			}
			if status, _, err := get(ctx, hc, d.url+"/readyz"); err == nil && status == http.StatusOK {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("daemon %s not ready: %w: %s", d.url, ctx.Err(), d.logTail())
			case <-time.After(readyPoll):
			}
		}
	}
	return nil
}

// get fetches url and returns the status and body.
func get(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// counters fetches the daemon's metric counters.
func (d *daemon) counters(ctx context.Context, hc *http.Client) (map[string]int64, error) {
	status, body, err := get(ctx, hc, d.url+"/metrics?format=json")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", d.url, status)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", d.url, err)
	}
	return snap.Counters, nil
}

// cpuTime is the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// rss is the daemon's resident set size in bytes.
func (d *daemon) rss() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", d.cmd.Process.Pid)
}

// freeAddr returns a loopback address with a port nobody is listening on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// fleet is the set of replicas serving one workload.
type fleet []*daemon

func (f fleet) urls() []string {
	out := make([]string, len(f))
	for i, d := range f {
		out[i] = d.url
	}
	return out
}

// stop stops every replica and waits for each to exit.
func (f fleet) stop() {
	for _, d := range f {
		d.stop()
	}
}

// sampleRSS records the fleet's resident set size, summed over replicas,
// every rssEvery until stop is closed, then sends the samples on the
// returned channel.
func (f fleet) sampleRSS(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var samples []float64
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			sum, ok := int64(0), true
			for _, d := range f {
				n, err := d.rss()
				// A replica that died drops the sample; its requests fail the run.
				ok = ok && err == nil
				sum += n
			}
			if ok {
				samples = append(samples, float64(sum))
			}
			select {
			case <-stop:
				out <- samples
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// snapshot is the fleet's counters and CPU time at one instant, summed over
// replicas.
type snapshot struct {
	counters map[string]int64
	cpu      time.Duration
}

func (f fleet) snapshot(ctx context.Context, hc *http.Client) (snapshot, error) {
	s := snapshot{counters: make(map[string]int64)}
	for _, d := range f {
		c, err := d.counters(ctx, hc)
		if err != nil {
			return snapshot{}, err
		}
		for k, v := range c {
			s.counters[k] += v
		}
		cpu, err := d.cpuTime()
		if err != nil {
			return snapshot{}, err
		}
		s.cpu += cpu
	}
	return s, nil
}

// delta is counter name's increase from a to b.
func delta(a, b snapshot, name string) int64 { return b.counters[name] - a.counters[name] }
