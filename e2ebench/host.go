package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// spinSink keeps the spin loop's result live so the compiler cannot
// drop the loop.
var spinSink uint64

// hostSpinMS times a fixed integer loop three times and returns the
// median in milliseconds: a per-run reading of how fast the host runs
// right now, recorded to explain outlier runs.
func hostSpinMS() float64 {
	xs := make([]float64, 3)
	for i := range xs {
		t := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 30_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x
		xs[i] = ms(time.Since(t))
	}
	return median(xs)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks:
// time the vCPUs were stolen by the hypervisor, busy (user, nice,
// system, irq, softirq), and in total.
type cpuTimes struct{ steal, busy, total uint64 }

func readCPUTimes() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}, fmt.Errorf("/proc/stat: empty")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("/proc/stat: unexpected first line %q", sc.Text())
	}
	var c cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already included in user, so it is not summed.
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		c.total += v
		switch i {
		case 0, 1, 2, 5, 6:
			c.busy += v
		case 7:
			c.steal = v
		}
	}
	return c, nil
}

// stealPct is the share of CPU time the hypervisor stole between two
// readings, in percent.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealShare is the share of the time the vCPUs wanted to run that the
// hypervisor stole between two readings: steal / (busy + steal). An op
// that ran for w with that share stolen would have taken w·(1 − share)
// on an undisturbed host, whether it kept one vCPU busy or all of them.
func stealShare(a, b cpuTimes) float64 {
	wanted := (b.busy + b.steal) - (a.busy + a.steal)
	if wanted == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(wanted)
}

// stealTick is how often a stealClock samples /proc/stat: twice the
// kernel's clock tick, the resolution of its counters. A sample costs
// 0.1–0.4 ms of CPU with its wake-up, the more the busier the host, so
// the clock takes 0.5–2% of one CPU.
const stealTick = 20 * time.Millisecond

// stealClock samples /proc/stat every stealTick while a window runs, so
// that afterwards the host steal inside each op can be read off. Reading
// it around every request instead would cost more than a cached request
// takes (about 200 µs).
type stealClock struct {
	stop, done chan struct{}
	at         []time.Time
	c          []cpuTimes
}

func startStealClock() *stealClock {
	s := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample records the counters now; a failed read records nothing.
func (s *stealClock) sample() {
	if c, err := readCPUTimes(); err == nil {
		s.at = append(s.at, time.Now())
		s.c = append(s.c, c)
	}
}

// halt takes a last sample and stops the clock; share may be called
// after it.
func (s *stealClock) halt() {
	close(s.stop)
	<-s.done
	s.sample()
}

// share returns the stealShare between the first sample at or after
// start and the last at or before end: 0 for an op too short to span a
// whole sampling interval, which on this reading was not stolen from.
func (s *stealClock) share(start, end time.Time) float64 {
	a := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(start) })
	b := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(end) }) - 1
	if b <= a {
		return 0
	}
	return stealShare(s.c[a], s.c[b])
}

// window returns the host steal over the whole sampled span, in percent.
func (s *stealClock) window() float64 {
	if len(s.c) < 2 {
		return 0
	}
	return stealPct(s.c[0], s.c[len(s.c)-1])
}

// selfCPU returns the CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

// threadCPU returns the CPU time the calling OS thread has used so far,
// from CLOCK_THREAD_CPUTIME_ID: the scheduler's exact runtime, where
// getrusage's per-thread figures are tick samples rescaled to stay
// monotonic and can under-report a millisecond-long interval. The
// caller locks its goroutine to the thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the CPU time process pid has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may contain spaces: fields
	// are counted after its closing parenthesis (utime and stime are
	// fields 14 and 15 of the whole line).
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: too few fields", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// procPeakRSSMiB returns process pid's peak resident set (VmHWM).
func procPeakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}
