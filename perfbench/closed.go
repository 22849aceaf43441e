package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// opOut is one closed-loop optimization: the times of the optimizer call
// alone and the checker's verdict, which covers optimizer errors.
type opOut struct {
	t   opTime
	err error
}

// opTime is what one call cost: wall time, and the CPU time of the whole
// process (every thread: the caller, pardp's workers and the GC).
type opTime struct{ wall, cpu time.Duration }

// timeCall runs fn and returns what it cost.
func timeCall(fn func()) opTime {
	c0, w0 := processCPU(), time.Now()
	fn()
	return opTime{wall: time.Since(w0), cpu: processCPU() - c0}
}

// closedLoop drives a workload of decks — fixed multisets of operations in
// seeded order — with one client: each operation starts when the previous
// one (and its check) is done. Every run measures whole decks, so the mix
// of shapes is the same in every run: a new deck starts only while the
// run, extended by half the last deck's duration, stays within seconds.
// deck returns the next deck's length, 0 to stop.
//
// An op's latency is its CPU time, not its wall time (see README.md): on a
// shared host the hypervisor steals the vCPU for seconds at a time, and
// wall time moves with it. Wall times are kept for the printed per-shape
// lines and pardp.speedup.
//
// Untraced runs time each op alone. Traced runs replay every deck twice,
// first untraced (latencies and runtime counters) and then traced, so the
// two passes see the same operations for obs.trace_overhead.
type closedLoop struct {
	seconds time.Duration
	traced  bool

	lats     []float64 // untraced op latencies (CPU time), ms; failures count as +Inf
	rss      []float64 // untraced ops' peak resident memory, MB
	rssErr   error
	failed   int
	attempts int
	layers   layerTotals
}

func (c *closedLoop) run(deck func(i int) int, op func(j int, tc *tracedCall) opOut) {
	start := time.Now()
	var last time.Duration
	for d := 0; d == 0 || time.Since(start)+last/2 < c.seconds; d++ {
		n := deck(d)
		if n == 0 {
			break
		}
		deckStart := time.Now()
		for j := 0; j < n; j++ {
			if err := resetPeakRSS(); err != nil && c.rssErr == nil {
				c.rssErr = err
			}
			var before, after rtSnap
			if c.traced {
				before = readRuntime()
			}
			out := op(j, nil)
			if c.traced {
				after = readRuntime()
				c.layers.rt.add(before, after)
			}
			c.rss = append(c.rss, peakRSSMB())
			c.record(out, &c.lats)
		}
		if c.traced {
			for j := 0; j < n; j++ {
				tc := newTracedCall("op")
				out := op(j, tc)
				c.record(out, &c.layers.traced)
			}
		}
		last = time.Since(deckStart)
	}
	c.layers.untraced = c.lats
}

func (c *closedLoop) record(out opOut, lats *[]float64) {
	c.attempts++
	if out.err != nil {
		c.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", out.err)
		*lats = append(*lats, math.Inf(1))
		return
	}
	*lats = append(*lats, ms(out.t.cpu))
}

// optPerSec is optimizations completed per second of optimizer CPU time.
func (c *closedLoop) optPerSec() float64 {
	t := 0.0
	done := 0
	for _, l := range c.lats {
		if !math.IsInf(l, 1) {
			t += l
			done++
		}
	}
	return float64(done) / (t / 1e3)
}

// printTimes prints a group of ops' median and largest CPU and wall times.
func printTimes(group string, ts []opTime) {
	var cpu, wall []float64
	for _, t := range ts {
		cpu = append(cpu, ms(t.cpu))
		wall = append(wall, ms(t.wall))
	}
	fmt.Printf("%s: %d optimizations, CPU p50 %.1f ms, max %.1f ms; wall p50 %.1f ms, max %.1f ms\n",
		group, len(ts), median(cpu), quantile(cpu, 1), median(wall), quantile(wall, 1))
}
