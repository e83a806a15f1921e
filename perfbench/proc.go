package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procTimeout bounds any single buspower process the benchmark runs, so
// a hung child can never keep the benchmark past its deadline.
const procTimeout = 90 * time.Second

// procStats is what one finished buspower process cost.
type procStats struct {
	wall     time.Duration
	cpu      time.Duration // user + system
	maxRSSMB float64
	stdout   []byte
	stderr   []byte
}

// runProc runs bin with args to completion and measures it. A non-zero
// exit is an error carrying the process's stderr; ending ctx kills it.
func runProc(ctx context.Context, bin string, args ...string) (procStats, error) {
	ctx, cancel := context.WithTimeout(ctx, procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procStats{}, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, lastLines(stderr.String(), 5))
	}
	st := procStats{wall: wall, stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	ps := cmd.ProcessState
	st.cpu = ps.UserTime() + ps.SystemTime()
	st.maxRSSMB = maxRSSMB(ps)
	return st, nil
}

// maxRSSMB reads a finished process's peak resident set (Linux reports
// ru_maxrss in KiB).
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// procCPU reads a live process's accumulated user+system CPU time from
// /proc/<pid>/stat (clock ticks of 1/100 s, the Linux USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past the last ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat for pid %d", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc stat for pid %d", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// freshDir makes a new empty directory under the run's scratch space.
func (e *runEnv) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix+"-")
}

// stealTicks reads the machine-wide steal time from /proc/stat in clock
// ticks: time the hypervisor ran other guests on this machine's vCPUs.
// It is recorded next to the figures because it explains host noise.
func stealTicks() (uint64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	return v, err == nil
}

// stealSampler reads the machine's steal ticks every 100 ms while a
// phase runs, so the phase can tell which of its windows the host
// disturbed.
type stealSampler struct {
	start time.Time
	mu    sync.Mutex
	at    []float64 // seconds since start
	ticks []uint64
	stop  chan struct{}
	done  chan struct{}
}

func startStealSampler() *stealSampler {
	s := &stealSampler{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	v, ok := stealTicks()
	if !ok {
		return
	}
	s.mu.Lock()
	s.at = append(s.at, time.Since(s.start).Seconds())
	s.ticks = append(s.ticks, v)
	s.mu.Unlock()
}

// close stops sampling and waits for the sampler to exit.
func (s *stealSampler) close() {
	close(s.stop)
	<-s.done
}

// share is the stolen share of the machine's CPU time between from and
// to (seconds since the sampler started), or -1 when unknown. The first
// sample stands in for any earlier instant.
func (s *stealSampler) share(from, to float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, j := 0, -1
	for k, t := range s.at {
		if t <= from {
			i = k
		}
		if t >= to && j < 0 {
			j = k
		}
	}
	if len(s.at) == 0 || j < 0 || s.at[j] <= s.at[i] {
		return -1
	}
	return float64(s.ticks[j]-s.ticks[i]) / ((s.at[j] - s.at[i]) * 100 * float64(runtime.NumCPU()))
}
