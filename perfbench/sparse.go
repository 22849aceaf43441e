package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"sdpopt/internal/bits"
	"sdpopt/internal/ccp"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/pardp"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/workload"
)

// sparseShape is one query shape of the sparse-dp mix: count seeded
// instances per deck, each optimized once on the sequential engine (DPccp)
// and once on pardp.
type sparseShape struct {
	name  string
	spec  workload.Spec
	count int
}

// sparseShapes is the sparse-dp mix. Sorted by CPU time a deck's ten
// optimizations run Cycle-20 sequential (2), Cycle-20 on pardp (2),
// Chain-30 sequential (2), Chain-30 on pardp (2), Chain-40 (2), so the
// median falls in the middle of one block: Chain-30 sequential.
func sparseShapes() []sparseShape {
	return []sparseShape{
		{"Chain-40", workload.Spec{Cat: workload.ExtendedSchema(40), Topology: workload.Chain, NumRelations: 40}, 1},
		{"Chain-30", workload.Spec{Cat: workload.ExtendedSchema(30), Topology: workload.Chain, NumRelations: 30}, 2},
		{"Cycle-20", workload.Spec{Cat: workload.ExtendedSchema(20), Topology: workload.Cycle, NumRelations: 20}, 2},
	}
}

type sparseItem struct {
	name string
	q    *query.Query
}

// sparseDeck generates deck d's instances, fresh in every deck so that a
// run's median does not rest on two Chain-30 instances.
func sparseDeck(seed int64, d int) ([]sparseItem, error) {
	var items []sparseItem
	for si, sh := range sparseShapes() {
		sh.spec.Seed = seed*1_000_000 + int64(si)*10_000 + int64(d)
		qs, err := workload.Instances(sh.spec, sh.count)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		for _, q := range qs {
			items = append(items, sparseItem{name: sh.name, q: q})
		}
	}
	return items, nil
}

// sparseSetup generates the first deck, then optimizes its smallest query
// once on each engine, untimed, so the heap and the runtime have grown to
// the workload before the first timed run.
func sparseSetup(seed int64, workers int) ([]sparseItem, error) {
	items, err := sparseDeck(seed, 0)
	if err != nil {
		return nil, err
	}
	warm := items[len(items)-1].q
	if _, _, err := dp.Optimize(warm, dp.Options{Budget: memo.DefaultBudget}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if _, _, err := pardp.Optimize(warm, pardp.Options{Workers: workers, Budget: memo.DefaultBudget}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return items, nil
}

// parWorkers is pardp's worker count: 2, or fewer on a smaller host.
func parWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func runSparse(cfg runConfig) (*metricsOut, *tally, error) {
	workers := parWorkers()
	var items []sparseItem
	setup, err := timeSetup(3, func() error {
		var err error
		items, err = sparseSetup(cfg.seed, workers)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	// A deck runs every query on both engines; which engine goes first is
	// drawn per query so neither always inherits the other's garbage.
	type step struct {
		item int
		par  bool
	}
	var order []step
	first := make([]*plan.Plan, len(items))
	firstCosted := make([]int64, len(items))
	var seqMS, parMS, barrierMS float64
	var parOps int
	var ratios []float64
	byGroup := map[string][]opTime{}
	cl := &closedLoop{seconds: cfg.seconds, traced: cfg.trace}
	var deckErr error
	cl.run(func(d int) int {
		if d > 0 {
			if items, deckErr = sparseDeck(cfg.seed, d); deckErr != nil {
				return 0
			}
		}
		order = order[:0]
		for _, i := range rng.Perm(len(items)) {
			first := rng.Intn(2) == 1
			order = append(order, step{i, first}, step{i, !first})
		}
		return len(order)
	}, func(j int, tc *tracedCall) opOut {
		s := order[j]
		it := items[s.item]
		var p *plan.Plan
		var st dp.Stats
		var err error
		var t opTime
		if s.par {
			o := pardp.Options{Workers: workers, Budget: memo.DefaultBudget}
			if tc != nil {
				o.Obs, o.Ctx = tc.ob, tc.ctx
			}
			t = timeCall(func() { p, st, err = pardp.Optimize(it.q, o) })
		} else {
			o := dp.Options{Budget: memo.DefaultBudget}
			if tc != nil {
				o.Obs, o.Ctx = tc.ob, tc.ctx
			}
			t = timeCall(func() { p, st, err = dp.Optimize(it.q, o) })
		}
		if tc == nil {
			g := it.name + " sequential"
			if s.par {
				g = fmt.Sprintf("%s workers=%d", it.name, workers)
			}
			byGroup[g] = append(byGroup[g], t)
		}
		if err == nil {
			err = checkPlan(it.q, p)
		}
		if err == nil {
			// The two runs of a query in one deck are adjacent: the second
			// is checked against the first, whichever engine ran first.
			if first[s.item] == nil {
				first[s.item], firstCosted[s.item] = p, st.PlansCosted
			} else {
				err = checkSame(first[s.item], p, firstCosted[s.item], st.PlansCosted)
				if tc == nil && err == nil {
					r := p.Cost / first[s.item].Cost
					if !s.par {
						r = 1 / r
					}
					ratios = append(ratios, r)
				}
				first[s.item] = nil
			}
		}
		if err != nil {
			return opOut{t: t, err: fmt.Errorf("%s (workers=%d: %v): %w", it.name, workers, s.par, err)}
		}
		if tc == nil && cfg.trace {
			if s.par {
				parMS += ms(t.wall)
			} else {
				seqMS += ms(t.wall)
			}
		}
		if tc != nil {
			cl.layers.addStats(st, tc.spanTotals())
			if s.par {
				barrierMS += ms(tc.barrierWait())
				parOps++
			}
			if len(cl.layers.joinInputs) < 2000 {
				cl.layers.joinInputs = collectJoins(it.q, p, cl.layers.joinInputs)
			}
		}
		return opOut{t: t}
	})

	if deckErr != nil {
		return nil, nil, deckErr
	}
	if cl.rssErr != nil {
		return nil, nil, cl.rssErr
	}
	m := newMetrics()
	if cfg.trace {
		cl.layers.report(m)
		var enumMS, walkMS []float64
		for _, it := range items {
			cl.attempts++
			e, w, err := enumProbe(it.q)
			if err != nil {
				cl.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", it.name, err)
				continue
			}
			enumMS = append(enumMS, ms(e))
			walkMS = append(walkMS, ms(w))
		}
		m.set("ccp.enum_ms", "ms", mean(enumMS))
		m.set("memo.walk_ms", "ms", mean(walkMS))
		m.set("pardp.speedup", "ratio", seqMS/parMS)
		m.set("pardp.barrier_wait_ms", "ms", barrierMS/float64(parOps))
	} else {
		m.set("setup_s", "s", setup)
		m.set("opt_per_s", "1/s", cl.optPerSec())
		m.set("latency_p50_ms", "ms", median(cl.lats))
		m.set("peak_rss_mb", "MB", median(cl.rss))
		m.set("plan_cost_ratio", "ratio", geomean(ratios))
	}
	groups := make([]string, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		printTimes("sparse-dp "+g, byGroup[g])
	}
	fmt.Printf("sparse-dp: %d optimizations\n", len(cl.lats))
	return m, &tally{attempted: cl.attempts, failed: cl.failed}, nil
}

// enumProbe times the query's pair enumeration with no costing, through
// the two enumerators the engines use: DPccp (ccp.Enumerate with a no-op
// emit) and the indexed level walk (memo.Walker.Gather over a memo holding
// one class per connected set, visiting every level split as dp's level
// loop does). Each is the median of several repetitions.
func enumProbe(q *query.Query) (enum, walk time.Duration, err error) {
	n := q.NumRelations()
	adj := make([]bits.Set, n)
	for i := range adj {
		adj[i] = q.Neighbors(bits.Single(i))
	}
	var pairs int
	emit := func(s1, s2 bits.Set) error { pairs++; return nil }
	var sets []bits.Set
	collect := func(s1, s2 bits.Set) error { sets = append(sets, s1.Union(s2)); return nil }
	if err := ccp.Enumerate(adj, ccp.Options{}, collect); err != nil {
		return 0, 0, err
	}

	// The memo the walk runs over: every connected set as a class, in
	// level order, as the engines would have created them.
	m := memo.New(0)
	m.Nbrs = q.Neighbors
	seen := map[bits.Set]bool{}
	for i := 0; i < n; i++ {
		sets = append(sets, bits.Single(i))
	}
	for k := 1; k <= n; k++ {
		for _, s := range sets {
			if s.Len() == k && !seen[s] {
				seen[s] = true
				if _, err := m.NewClass(s, k, 1, 1); err != nil {
					return 0, 0, err
				}
			}
		}
	}

	var enums, walks []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		pairs = 0
		if err := ccp.Enumerate(adj, ccp.Options{}, emit); err != nil {
			return 0, 0, err
		}
		enums = append(enums, float64(time.Since(t0)))

		t0 = time.Now()
		var w memo.Walker
		walked := 0
		for k := 2; k <= n; k++ {
			for i := 1; i <= k/2; i++ {
				j := k - i
				for _, a := range m.Level(i) {
					minSeq := 0
					if i == j {
						minSeq = a.Seq() + 1
					}
					walked += len(w.Gather(m, a, j, minSeq))
				}
			}
		}
		walks = append(walks, float64(time.Since(t0)))
		if walked != pairs {
			return 0, 0, fmt.Errorf("enumeration probe: indexed walk found %d pairs, DPccp %d", walked, pairs)
		}
	}
	return time.Duration(median(enums)), time.Duration(median(walks)), nil
}
