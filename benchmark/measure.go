package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// now is the harness's only wall-clock read. The benchmark measures host
// time by design; everything inside the simulation stays on vtime.
func now() time.Time {
	return time.Now() //lint:allow-realtime the benchmark harness measures host time by design
}

// since is the elapsed host time from t.
func since(t time.Time) time.Duration { return now().Sub(t) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// section is the cost of one timed stretch: host time, CPU time, and the
// allocation counters' movement.
type section struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

// timed runs fn and measures it. ReadMemStats stops the world, so it brackets
// the stretch instead of sampling inside it.
func timed(fn func() error) (section, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, err := cpuTime()
	if err != nil {
		return section{}, err
	}
	t0 := now()
	ferr := fn()
	wall := since(t0)
	c1, err := cpuTime()
	if err != nil {
		return section{}, err
	}
	runtime.ReadMemStats(&m1)
	return section{
		wall:   wall,
		cpu:    c1 - c0,
		allocs: m1.Mallocs - m0.Mallocs,
		bytes:  m1.TotalAlloc - m0.TotalAlloc,
	}, ferr
}

// calibrate runs a fixed pure-Go spin kernel (integer mixing over a buffer
// that fits in L1) and returns its host time in ms. It does the same work on
// every machine, so a drift in it is a drift in the machine, not the code.
func calibrate() float64 {
	var buf [1024]uint64
	for i := range buf {
		buf[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	t0 := now()
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 1023
		buf[j] += x
		x += buf[(j+1)&1023]
	}
	ms := float64(since(t0)) / float64(time.Millisecond)
	calibSink = x
	return ms
}

// calibIters sizes the kernel to about 0.3 s on the reference box.
const calibIters = 65_000_000

var calibSink uint64

// median returns the middle of xs (mean of the two middles for even n); NaN
// for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durQuantileUS is the q-quantile of host-time samples, in microseconds.
// It sorts in place.
func durQuantileUS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(ds[lo]) + float64(ds[hi]-ds[lo])*(pos-float64(lo))
	return v / float64(time.Microsecond)
}
