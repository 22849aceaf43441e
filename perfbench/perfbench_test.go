package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"testing"
	"time"

	"sdpopt/internal/dp"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/server"
	"sdpopt/internal/workload"
)

// benchSpec is the part of BENCHMARK.json the test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestManifestMatchesBenchmarkJSON checks that the metric tables the
// benchmark completes its output against are BENCHMARK.json's.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		mode     string
		declared []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
		table []metricDecl
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.table) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", c.mode, len(c.declared), len(c.table))
		}
		for i, d := range c.declared {
			if d.Name != c.table[i].name || d.Unit != c.table[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s in %s, the benchmark %s in %s", c.mode, i, d.Name, d.Unit, c.table[i].name, c.table[i].unit)
			}
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks that each run emits every metric BENCHMARK.json
// declares for its mode, each with its declared unit, and nothing
// undeclared; untraced runs must measure every end-to-end metric, and as
// a nonzero value.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	for _, trace := range []bool{false, true} {
		declared := map[string]string{}
		list := spec.EndToEnd
		if trace {
			list = spec.PerLayer
		}
		for _, m := range list {
			declared[m.Name] = m.Unit
		}
		for _, w := range spec.Workloads {
			drive, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", w.Name)
			}
			m, tl, err := drive(runConfig{workload: w.Name, seed: 7, seconds: time.Second, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if tl.failed != 0 || tl.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.Name, trace, tl.failed, tl.attempted)
			}
			if err := complete(m, trace); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
				continue
			}
			for name, unit := range declared {
				v, ok := m.vals[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v does not emit %q", w.Name, trace, name)
				case unit != v.Unit:
					t.Errorf("%s trace=%v: %s in %q, declared %q", w.Name, trace, name, v.Unit, unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v", w.Name, name, v.Value)
				}
			}
			if len(m.vals) != len(declared) {
				t.Errorf("%s trace=%v emits %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(m.vals), len(declared))
			}
		}
	}
}

func smallPlan(t *testing.T) (*query.Query, *plan.Plan) {
	t.Helper()
	q, err := workload.One(workload.Spec{Cat: workload.PaperSchema(), Topology: workload.StarChain, NumRelations: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := dp.Optimize(q, dp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return q, p
}

func TestCheckerAcceptsOptimizerOutput(t *testing.T) {
	q, p := smallPlan(t)
	if err := checkPlan(q, p); err != nil {
		t.Fatal(err)
	}
	if err := checkSame(p, p, 10, 10); err != nil {
		t.Fatal(err)
	}
	ok := &server.OptimizeResponse{Technique: "sdp", Cost: p.Cost}
	if err := checkResponse(http.StatusOK, ok, func(string) (float64, error) { return p.Cost, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsFlippedCostBit(t *testing.T) {
	q, p := smallPlan(t)
	bad := *p
	bad.Cost = math.Float64frombits(math.Float64bits(p.Cost) ^ 1)
	if err := checkPlan(q, &bad); err == nil {
		t.Fatal("checker accepted a plan with one cost bit flipped")
	}
}

func TestCheckerRejectsDuplicatedRelation(t *testing.T) {
	q, p := smallPlan(t)
	// Find a join and make both its children the same subtree: that
	// subtree's relations now appear twice and another's not at all.
	var find func(x *plan.Plan) *plan.Plan
	find = func(x *plan.Plan) *plan.Plan {
		if x == nil || x.Op.IsJoin() {
			return x
		}
		return find(x.Left)
	}
	j := find(p)
	if j == nil {
		t.Fatal("no join in the plan")
	}
	bad := *j
	bad.Right = j.Left
	if err := checkPlan(q, &bad); err == nil {
		t.Fatal("checker accepted a plan with a duplicated relation")
	}
}

func TestCheckerRejectsServerError(t *testing.T) {
	resp := &server.OptimizeResponse{Technique: "sdp", Error: "internal"}
	if err := checkResponse(http.StatusInternalServerError, resp, func(string) (float64, error) { return 0, nil }); err == nil {
		t.Fatal("checker accepted a 500 response")
	}
}
