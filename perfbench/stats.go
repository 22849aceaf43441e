package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricsOut collects one run's metrics by name.
type metricsOut struct {
	vals map[string]metricVal
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newMetrics() *metricsOut { return &metricsOut{vals: map[string]metricVal{}} }

func (m *metricsOut) set(name, unit string, v float64) {
	m.vals[name] = metricVal{Value: v, Unit: unit}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (numpy's default). xs need not be sorted; it is not
// modified. Returns NaN for an empty sample.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// geomean returns the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// processCPU reads the CPU time of the whole process, user and system:
// it excludes time the hypervisor stole.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF): " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's resident-memory high-water mark (VmHWM)
// to its current resident memory.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-memory high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			break
		}
		return kb / 1024
	}
	return math.NaN()
}

// Go runtime counters behind the gc.* and sched.* layer metrics.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

// rtSnap is one reading of rtNames.
type rtSnap []metrics.Sample

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// rtDelta is the runtime work done between two snapshots.
type rtDelta struct {
	allocBytes, allocObjects, cycles float64
	gcCPUSeconds, gcPauseSeconds     float64
	// schedLatency counts goroutine scheduling latencies per bucket.
	schedBuckets []float64
	schedCounts  []uint64
}

func (d *rtDelta) add(a, b rtSnap) {
	d.allocBytes += float64(b[0].Value.Uint64() - a[0].Value.Uint64())
	d.allocObjects += float64(b[1].Value.Uint64() - a[1].Value.Uint64())
	d.cycles += float64(b[2].Value.Uint64() - a[2].Value.Uint64())
	d.gcCPUSeconds += b[3].Value.Float64() - a[3].Value.Float64()
	d.gcPauseSeconds += histSum(b[4].Value.Float64Histogram()) - histSum(a[4].Value.Float64Histogram())
	hb, ha := b[5].Value.Float64Histogram(), a[5].Value.Float64Histogram()
	if d.schedCounts == nil {
		d.schedBuckets = hb.Buckets
		d.schedCounts = make([]uint64, len(hb.Counts))
	}
	for i := range hb.Counts {
		d.schedCounts[i] += hb.Counts[i] - ha.Counts[i]
	}
}

func (d *rtDelta) merge(o *rtDelta) {
	d.allocBytes += o.allocBytes
	d.allocObjects += o.allocObjects
	d.cycles += o.cycles
	d.gcCPUSeconds += o.gcCPUSeconds
	d.gcPauseSeconds += o.gcPauseSeconds
	if d.schedCounts == nil {
		d.schedBuckets = o.schedBuckets
		d.schedCounts = make([]uint64, len(o.schedCounts))
	}
	for i, c := range o.schedCounts {
		d.schedCounts[i] += c
	}
}

// histSum approximates a runtime histogram's total by bucket midpoints
// (lower bound for the open-ended last bucket).
func histSum(h *metrics.Float64Histogram) float64 {
	t := 0.0
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		mid := lo
		if !math.IsInf(hi, 1) {
			mid = (lo + hi) / 2
		}
		t += float64(c) * mid
	}
	return t
}

// schedP99Micros returns the upper bound of the bucket holding the 99th
// percentile scheduling latency, in microseconds.
func (d *rtDelta) schedP99Micros() float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, c := range d.schedCounts {
		acc += c
		if acc >= want {
			hi := d.schedBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = d.schedBuckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// report adds the gc.* and sched.* metrics, normalized per op.
func (d *rtDelta) report(m *metricsOut, ops int) {
	n := float64(ops)
	m.set("gc.alloc_mb", "MB", d.allocBytes/(1<<20)/n)
	m.set("gc.allocs", "count", d.allocObjects/n)
	m.set("gc.cycles", "count", d.cycles/n)
	m.set("gc.cpu_ms", "ms", d.gcCPUSeconds*1e3/n)
	m.set("gc.pause_ms", "ms", d.gcPauseSeconds*1e3/n)
	m.set("sched.latency_p99_us", "us", d.schedP99Micros())
}
