// Command perfbench is the optimizer's benchmark: three seeded workloads
// run against the engines' and the server's public entry points, with
// every output checked. See README.md for the workloads, the metrics and
// how to run it.
//
//	perfbench --workload hub-sdp --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones from a separate traced run. The
// command exits 1 when any output fails its check.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// tally counts the operations a run attempted and those that failed: an
// error, a budget abort, a non-200 response, a timeout, or an output the
// checker rejected.
type tally struct{ attempted, failed int }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*metricsOut, *tally, error){
	"hub-sdp":     runHub,
	"sparse-dp":   runSparse,
	"serve-mixed": runServe,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hub-sdp, sparse-dp or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload hub-sdp|sparse-dp|serve-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(cfg)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(prov))

	m, t, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := complete(m, cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	// JSON has no infinities: a latency quantile is infinite when failed
	// operations reach it, and a ratio is NaN over an empty sample.
	for name, v := range m.vals {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v; reported as -1\n", name, v.Value)
			m.vals[name] = metricVal{Value: -1, Unit: v.Unit}
		}
	}
	fmt.Printf("failed_frac %.6f (%d of %d operations)\n", float64(t.failed)/float64(t.attempted), t.failed, t.attempted)
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, m.vals})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if t.failed > 0 || t.attempted == 0 {
		return 1
	}
	return 0
}

// timeSetup runs fn reps times and returns the median of the CPU time
// each repetition cost the process, in seconds; the state the last
// repetition built is the one measured.
func timeSetup(reps int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		var err error
		t := timeCall(func() { err = fn() })
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, t.cpu.Seconds())
	}
	return median(ts), nil
}

// provenance records what produced a result: the inputs, the host and the
// code, whose git commit and source digest run.sh passes in the
// environment.
func provenance(cfg runConfig) map[string]any {
	env := func(k string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return "unknown"
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     env("PERFBENCH_COMMIT"),
		"source":     env("PERFBENCH_SOURCE"),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
