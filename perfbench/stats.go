package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method (Python's statistics.quantiles(xs, n=4)), so the
// steadiness report matches how the spread is judged elsewhere.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		// Position k*(n+1)/4 (1-based), clamped to the sample range.
		m := k * (n + 1)
		j := m / 4
		frac := float64(m%4) / 4
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p < 100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// tailPercentile picks the highest percentile of a fixed ladder that
// leaves at least ten samples beyond it in a run of n samples. Callers pass the
// guaranteed minimum sample count of the workload, not the count a run
// happened to reach, so the same percentile is reported on every run.
func tailPercentile(n int) float64 {
	perMille := 500
	for _, c := range []int{750, 900, 950, 990, 995, 999} {
		if n*(1000-c) >= 10*1000 {
			perMille = c
		}
	}
	return float64(perMille) / 10
}

// cpuSeconds reports the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS asks the kernel to restart the VmHWM high-water mark, so the
// next peakRSSMiB covers only what follows. It reports whether the reset
// took; without it the peak covers the whole process lifetime.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuClock is the aggregate line of /proc/stat: the CPU time the machine's
// CPUs had work (busy), and the part of it that was stolen, that is, spent
// by the hypervisor running other guests while this one had work. A CPU
// with nothing to run accrues neither.
type cpuClock struct{ busy, steal float64 }

func readCPUClock() cpuClock {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuClock{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuClock{}
	}
	var c cpuClock
	// Columns: user nice system idle iowait irq softirq steal; guest time
	// is already part of user. idle and iowait are not busy.
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		switch i {
		case 4, 5:
		case 8:
			c.steal = v
			c.busy += v
		default:
			c.busy += v
		}
	}
	return c
}

// stealShare is the stolen share of the busy CPU time between a and b, or
// 0 where the kernel does not account steal. The benchmark is all this
// guest runs, so the busy time is its own: without the stolen part, its
// wall time would have been 1 - stealShare as long. On a shared host the
// share runs from 0 to over half as other guests come and go.
func stealShare(a, b cpuClock) float64 {
	busy := b.busy - a.busy
	if busy <= 0 {
		return 0
	}
	return min(max((b.steal-a.steal)/busy, 0), 1)
}

// section measures one timed section: wall time, its stolen share,
// process CPU time and the resident-set peak.
type section struct {
	t0    time.Time
	cpu0  float64
	clock cpuClock
}

func startSection() section {
	resetPeakRSS()
	return section{t0: time.Now(), cpu0: cpuSeconds(), clock: readCPUClock()}
}

func (s section) stop() (wall, steal, cpu, rss float64) {
	wall = time.Since(s.t0).Seconds()
	return wall, stealShare(s.clock, readCPUClock()), cpuSeconds() - s.cpu0, peakRSSMiB()
}
