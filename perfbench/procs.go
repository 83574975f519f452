package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running bwserved or bwgate process.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once its stdout reaches EOF
}

// startProc launches bin with args and waits for its "listening on
// http://ADDR" announcement (both binaries print it once bound).
func startProc(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// Should the harness die without stopping it, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			if !announced {
				first <- sc.Text()
				announced = true
			}
		}
		if !announced {
			close(first)
		}
	}()
	select {
	case line, okLine := <-first:
		_, rest, found := strings.Cut(line, "listening on ")
		if !okLine || !found {
			p.stop()
			return nil, fmt.Errorf("%s did not announce its address (got %q)", filepath.Base(bin), line)
		}
		p.url, _, _ = strings.Cut(rest, " ")
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start within 30s", filepath.Base(bin))
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after 10s) and
// waits until it has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	_ = p.cmd.Wait()
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuSeconds returns the CPU time, user plus system, that a process's
// threads have used so far: the sum of the run times in
// /proc/<pid>/task/*/schedstat, in nanoseconds (a Go program's threads
// live as long as it does). Linux charges a task only for the time it
// really ran: time the hypervisor gives to other guests (steal) is left
// out, so on a shared host the figure follows the work done rather than
// the host's load.
func cpuSeconds(pid string) (float64, error) {
	stats, err := filepath.Glob("/proc/" + pid + "/task/*/schedstat")
	if err != nil || len(stats) == 0 {
		return 0, fmt.Errorf("no threads under /proc/%s/task", pid)
	}
	ns := 0.0
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread has just exited
		}
		fields := strings.Fields(string(raw))
		if len(fields) == 0 {
			return 0, fmt.Errorf("empty %s", path)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// selfCPUSeconds returns the CPU time the benchmark process has used,
// with the microsecond resolution of getrusage and, as cpuSeconds,
// without steal.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// cpuSelf is selfCPUSeconds as a cpuMeter.
func cpuSelf() (float64, error) { return selfCPUSeconds(), nil }

// waitHealthy polls GET /v1/healthz until it answers 200.
func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/v1/healthz not ready after %s", base, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleetProcs is the system under test of a serving workload: one
// bwserved (serve-compute), or bwgate in front of two (serve-cached).
type fleetProcs struct {
	workers []*proc
	gate    *proc
}

// entry returns the URL the load is sent to.
func (f *fleetProcs) entry() string {
	if f.gate != nil {
		return f.gate.url
	}
	return f.workers[0].url
}

// startFleet launches the processes with their default configuration
// (ephemeral ports aside) and waits until every one answers /v1/healthz.
func startFleet(binDir string, withGateway bool) (*fleetProcs, error) {
	f := &fleetProcs{}
	n := 1
	if withGateway {
		n = 2
	}
	for i := 0; i < n; i++ {
		p, err := startProc(filepath.Join(binDir, "bwserved"), "-addr", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, p)
	}
	if withGateway {
		args := []string{"-addr", "127.0.0.1:0"}
		for i, w := range f.workers {
			args = append(args, "-upstream", fmt.Sprintf("%s,name=w%d", w.url, i))
		}
		p, err := startProc(filepath.Join(binDir, "bwgate"), args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.gate = p
	}
	for _, p := range f.all() {
		if err := waitHealthy(p.url, 30*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleetProcs) all() []*proc {
	out := append([]*proc(nil), f.workers...)
	if f.gate != nil {
		out = append(out, f.gate)
	}
	return out
}

// peakRSSMB sums VmHWM over every process of the fleet.
func (f *fleetProcs) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range f.all() {
		mb, err := peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// cpuSeconds sums the CPU time of every process of the fleet.
func (f *fleetProcs) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range f.all() {
		s, err := cpuSeconds(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// stop terminates the gateway first, then the workers, waiting for each.
func (f *fleetProcs) stop() {
	if f == nil {
		return
	}
	f.gate.stop()
	for _, w := range f.workers {
		w.stop()
	}
}
