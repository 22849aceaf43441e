package main

import (
	"fmt"
	"math"
	"math/rand"

	"sdpopt/internal/core"
	"sdpopt/internal/dp"
	"sdpopt/internal/memo"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/workload"
)

// hubShape is one query shape of the hub-sdp mix, drawn perDeck times per
// deck.
type hubShape struct {
	name    string
	spec    workload.Spec
	perDeck int
	// pool > 0 fixes that many instances for the whole run, each with an
	// exhaustive-DP reference: the checker's lower bound and
	// plan_cost_ratio's denominator. pool 0 draws fresh instances for every
	// deck, so a run averages over many instances of the shape.
	pool int
}

// hubShapes is the hub-sdp mix. A deck is 100 optimizations. Sorted by
// latency the shapes occupy roughly [0,26%) Star-Chain-15, [26,74%)
// Star-17, [74,99%) Star-20 and the top 1% Star-30, so the median falls
// in the middle of the Star-17 block and p95 inside the Star-20 block, not
// on a boundary between two shapes.
func hubShapes() []hubShape {
	paper := workload.PaperSchema()
	return []hubShape{
		{name: "Star-Chain-15", spec: workload.Spec{Cat: paper, Topology: workload.StarChain, NumRelations: 15}, perDeck: 26, pool: 2},
		{name: "Star-17", spec: workload.Spec{Cat: paper, Topology: workload.Star, NumRelations: 17}, perDeck: 48},
		{name: "Star-20", spec: workload.Spec{Cat: paper, Topology: workload.Star, NumRelations: 20}, perDeck: 25},
		{name: "Star-30", spec: workload.Spec{Cat: workload.ExtendedSchema(30), Topology: workload.Star, NumRelations: 30}, perDeck: 1},
	}
}

type hubItem struct {
	q     *query.Query
	shape int
	ref   float64 // DP optimum cost, for pooled shapes
}

// hubSeed derives a distinct instance-generation seed per workload seed,
// shape and deck (deck -1 for the fixed pools).
func hubSeed(seed int64, shape, deck int) int64 {
	return seed*1_000_000 + int64(shape)*10_000 + int64(deck+1)
}

// hubSetup generates the pooled instances and their DP references.
func hubSetup(shapes []hubShape, seed int64) ([]hubItem, error) {
	var items []hubItem
	for si, sh := range shapes {
		if sh.pool == 0 {
			continue
		}
		sh.spec.Seed = hubSeed(seed, si, -1)
		qs, err := workload.Instances(sh.spec, sh.pool)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		for _, q := range qs {
			p, _, err := dp.Optimize(q, dp.Options{Budget: memo.DefaultBudget})
			if err != nil {
				return nil, fmt.Errorf("%s DP reference: %w", sh.name, err)
			}
			items = append(items, hubItem{q: q, shape: si, ref: p.Cost})
		}
	}
	return items, nil
}

// hubDeck lays out deck d: the pooled instances repeated to their share
// and fresh instances of the other shapes, in seeded order.
func hubDeck(shapes []hubShape, pooled []hubItem, seed int64, d int, rng *rand.Rand) ([]hubItem, error) {
	var deck []hubItem
	for si, sh := range shapes {
		if sh.pool > 0 {
			for k := 0; k < sh.perDeck; k++ {
				deck = append(deck, pooled[k%len(pooled)])
			}
			continue
		}
		sh.spec.Seed = hubSeed(seed, si, d)
		qs, err := workload.Instances(sh.spec, sh.perDeck)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		for _, q := range qs {
			deck = append(deck, hubItem{q: q, shape: si})
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck, nil
}

func runHub(cfg runConfig) (*metricsOut, *tally, error) {
	var shapes []hubShape
	var pooled []hubItem
	setup, err := timeSetup(3, func() error {
		var err error
		shapes = hubShapes()
		pooled, err = hubSetup(shapes, cfg.seed)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var deck []hubItem
	var deckErr error
	var ratios []float64
	byShape := make([][]opTime, len(shapes))
	cl := &closedLoop{seconds: cfg.seconds, traced: cfg.trace}
	var pruned, candidates, skylineMS float64
	cl.run(func(d int) int {
		if deck, deckErr = hubDeck(shapes, pooled, cfg.seed, d, rng); deckErr != nil {
			return 0
		}
		return len(deck)
	}, func(j int, tc *tracedCall) opOut {
		it := deck[j]
		opts := core.DefaultOptions()
		opts.Budget = memo.DefaultBudget
		opts.Workers = 1
		var tr *core.Trace
		if tc != nil {
			tr = &core.Trace{}
			opts.Obs, opts.Ctx, opts.Trace = tc.ob, tc.ctx, tr
		}
		var p *plan.Plan
		var st dp.Stats
		var err error
		t := timeCall(func() { p, st, err = core.Optimize(it.q, opts) })
		if tc == nil {
			byShape[it.shape] = append(byShape[it.shape], t)
		}
		if err == nil {
			err = checkPlan(it.q, p)
		}
		if err == nil && it.ref > 0 {
			err = checkNotBelow(p, it.ref)
			if tc == nil && err == nil {
				ratios = append(ratios, p.Cost/it.ref)
			}
		}
		if err != nil {
			return opOut{t: t, err: fmt.Errorf("%s: %w", shapes[it.shape].name, err)}
		}
		if tc != nil {
			spans := tc.spanTotals()
			cl.layers.addStats(st, spans)
			skylineMS += ms(spans["sdp.partition"])
			for _, lv := range tr.Levels {
				pruned += float64(len(lv.Pruned))
				candidates += float64(len(lv.PruneGroup))
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
		n := float64(cl.layers.ops)
		cl.layers.report(m)
		m.set("core.classes_pruned", "count", pruned/n)
		m.set("core.prune_ratio", "ratio", pruned/candidates)
		m.set("core.skyline_ms", "ms", skylineMS/n)
	} else {
		m.set("setup_s", "s", setup)
		m.set("opt_per_s", "1/s", cl.optPerSec())
		m.set("latency_p50_ms", "ms", median(cl.lats))
		m.set("peak_rss_mb", "MB", median(cl.rss))
		m.set("plan_cost_ratio", "ratio", geomean(ratios))
	}
	for si, ts := range byShape {
		printTimes("hub-sdp "+shapes[si].name, ts)
	}
	fmt.Printf("hub-sdp: %d optimizations, p95 %.1f ms, %d beyond it\n", len(cl.lats), quantile(cl.lats, 0.95), len(cl.lats)-int(math.Ceil(0.95*float64(len(cl.lats)))))
	return m, &tally{attempted: cl.attempts, failed: cl.failed}, nil
}
