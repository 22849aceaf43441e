package main

import "fmt"

// metricDecl is one metric BENCHMARK.json declares.
type metricDecl struct{ name, unit string }

// endToEnd are the untraced run's metrics. Every workload reports every
// one of them, each with the meaning README.md gives it on that workload.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"opt_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"plan_cost_ratio", "ratio"},
}

// perLayer are the traced run's metrics. Every workload reports every one
// of them; a layer the workload does not run reads 0 (see README.md for
// which those are).
var perLayer = []metricDecl{
	{"dp.pairs_considered", "count"},
	{"dp.pairs_connected", "count"},
	{"dp.pair_yield", "ratio"},
	{"ccp.enum_ms", "ms"},
	{"memo.walk_ms", "ms"},
	{"dp.plans_costed", "count"},
	{"cost.join_plans_ns", "ns"},
	{"memo.classes_created", "count"},
	{"memo.paths_retained", "count"},
	{"memo.peak_sim_mb", "MB"},
	{"core.classes_pruned", "count"},
	{"core.prune_ratio", "ratio"},
	{"core.skyline_ms", "ms"},
	{"dp.level_ms", "ms"},
	{"dp.other_ms", "ms"},
	{"pardp.speedup", "ratio"},
	{"pardp.barrier_wait_ms", "ms"},
	{"gc.alloc_mb", "MB"},
	{"gc.allocs", "count"},
	{"gc.cycles", "count"},
	{"gc.cpu_ms", "ms"},
	{"gc.pause_ms", "ms"},
	{"sched.latency_p99_us", "us"},
	{"parse.sql_us", "us"},
	{"query.canon_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.dedups", "count"},
	{"plancache.evictions", "count"},
	{"plancache.entries", "count"},
	{"plancache.hit_server_us", "us"},
	{"route.share.sdp", "ratio"},
	{"route.share.idp2", "ratio"},
	{"route.share.greedy", "ratio"},
	{"route.demotions", "ratio"},
	{"route.downgrades", "ratio"},
	{"server.overhead_us", "us"},
	{"server.miss_engine_p50_ms", "ms"},
	{"server.miss_engine_p99_ms", "ms"},
	{"server.shed", "ratio"},
	{"light.gen.lag_p99_ms", "ms"},
	{"heavy.gen.lag_p99_ms", "ms"},
	{"client.conn_wait_p50_ms", "ms"},
	{"client.conn_wait_p99_ms", "ms"},
	{"client.net_ms", "ms"},
	{"obs.trace_overhead", "ratio"},
}

// complete makes m hold exactly its mode's declared metrics: it reports a
// per-layer metric the workload did not measure as 0, and fails on an
// end-to-end metric the workload did not report or on any metric that is
// undeclared or in the wrong unit.
func complete(m *metricsOut, trace bool) error {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	units := map[string]string{}
	for _, d := range decls {
		units[d.name] = d.unit
		if _, ok := m.vals[d.name]; !ok {
			if !trace {
				return fmt.Errorf("end-to-end metric %s not measured", d.name)
			}
			m.set(d.name, d.unit, 0)
		}
	}
	for name, v := range m.vals {
		if u, ok := units[name]; !ok || u != v.Unit {
			return fmt.Errorf("metric %s in %q is not declared with that unit", name, v.Unit)
		}
	}
	return nil
}
