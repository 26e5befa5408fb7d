package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's CPU time so far, user plus system,
// across every thread (GC workers included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freshStart prepares one operation: it collects the garbage earlier
// work left, so the operation timed next does not pay for it, returns
// freed memory to the OS, and restarts the kernel's resident-set
// high-water mark from the live heap. peakRSSMB read after the
// operation then reports that operation's own peak, whatever the
// benchmark's generator and reference solve needed before it.
func freshStart() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks. xs is not modified.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// relErrors compares ranks with the reference ranks ref over the
// documents skip does not exclude and returns the mean and 99th
// percentile of |rank-ref|/ref.
func relErrors(ranks, ref []float64, skip func(i int) bool) (avg, p99 float64, err error) {
	if len(ranks) != len(ref) {
		return 0, 0, fmt.Errorf("%d ranks vs %d reference ranks", len(ranks), len(ref))
	}
	errs := make([]float64, 0, len(ref))
	sum := 0.0
	for i, r := range ref {
		if skip != nil && skip(i) {
			continue
		}
		e := math.Abs(ranks[i]-r) / r
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return 0, 0, fmt.Errorf("doc %d: rank %v vs reference %v", i, ranks[i], r)
		}
		errs = append(errs, e)
		sum += e
	}
	if len(errs) == 0 {
		return 0, 0, fmt.Errorf("no documents to compare")
	}
	return sum / float64(len(errs)), quantile(errs, 0.99), nil
}

// Error bounds at the operating point: the paper's criterion stops a
// document from sending once its relative change falls below epsilon,
// so each document's error is a small multiple of epsilon. The bounds
// leave room for the chaotic schedule of the live cluster.
const (
	maxErrAvg = 3 * epsilon
	maxErrP99 = 20 * epsilon
)

// checkErrors fails when the error against the reference exceeds the
// epsilon-derived bounds.
func checkErrors(avg, p99 float64) error {
	if avg > maxErrAvg || p99 > maxErrP99 {
		return fmt.Errorf("error vs centralized ranks too large: avg %.3g (bound %.3g), p99 %.3g (bound %.3g)",
			avg, maxErrAvg, p99, maxErrP99)
	}
	return nil
}

// runtimeCounters samples the Go runtime's allocation and GC counters.
type runtimeCounters struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	s := append([]rtmetrics.Sample(nil), runtimeSamples...)
	rtmetrics.Read(s)
	return runtimeCounters{
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// plus returns a with the counts accumulated from from to to added.
func (a runtimeCounters) plus(from, to runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocs:     a.allocs + to.allocs - from.allocs,
		allocBytes: a.allocBytes + to.allocBytes - from.allocBytes,
		gcCycles:   a.gcCycles + to.gcCycles - from.gcCycles,
		gcCPU:      a.gcCPU + to.gcCPU - from.gcCPU,
		totalCPU:   a.totalCPU + to.totalCPU - from.totalCPU,
	}
}

// addRuntime reports the runtime counters accumulated between a and b,
// per update where a per-update figure is meaningful.
func addRuntime(m metrics, a, b runtimeCounters, updates float64) {
	m["runtime.allocs_per_update"] = float64(b.allocs-a.allocs) / updates
	m["runtime.alloc_bytes_per_update"] = float64(b.allocBytes-a.allocBytes) / updates
	m["runtime.gc.cycles"] = float64(b.gcCycles - a.gcCycles)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc.cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// overhead is the traced figure's excess over the untraced one, as a
// share of the untraced one.
func overhead(traced, untraced float64) float64 {
	return traced/untraced - 1
}
