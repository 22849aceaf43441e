package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"time"

	"sdpopt/internal/catalog"
	"sdpopt/internal/loadgen"
	"sdpopt/internal/memo"
	"sdpopt/internal/obs"
	"sdpopt/internal/parse"
	"sdpopt/internal/plancache"
	"sdpopt/internal/query"
	"sdpopt/internal/route"
	"sdpopt/internal/server"
	"sdpopt/internal/workload"
)

// serve-mixed settings, fixed once at the commit that introduced the
// benchmark (see README.md for how the rates were chosen).
const (
	// serveHot is the hot set: fingerprints most requests repeat. It fits
	// in the cache (serveCacheEntries over 16 shards).
	serveHot          = 80
	serveCacheEntries = 256
	// serveMissShare is the share of requests carrying a never-repeated
	// query: a fill and, once the cache is full, an eviction. Star-12
	// misses, the slowest, are a fifth of them, 1.6 % of requests, so p99
	// falls inside their latency distribution rather than at its edge.
	serveMissShare = 0.08
	serveLightQPS  = 200
	serveHeavyQPS  = 400
	// serveDeadlineMS is each request's timeout_ms, the router's signal.
	// Under it the router sends Star-Chain-15 to IDP2 from its prior and
	// keeps Star-12 on SDP with a wide margin; at 100 ms a burst of slow
	// Star-12 runs could push Star-12 onto IDP2 for the rest of the
	// process, and runs differed by which state they ended in.
	serveDeadlineMS = 130
	// serveClientTimeout fails a request the server has not answered.
	serveClientTimeout = 2 * time.Second
)

// serveConns is the client's connection count: nproc, at most 4.
func serveConns() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// serveState is one set-up server with its query pool and schedule.
type serveState struct {
	cat    *catalog.Catalog
	srv    *server.Server
	cache  *plancache.Cache
	url    string
	sqls   []string // hot set first, then one cold query per cold arrival
	hot    int      // the hot set is sqls[:hot]
	shapes []string // the mix entry each query was drawn from
	bodies [][]byte
	phases []servePhase
	refs   *refTable
}

type servePhase struct {
	name     string
	qps      float64
	arrivals []arrival
}

// arrival is one scheduled request: its offset from the phase start and
// the query it carries.
type arrival struct {
	at  time.Duration
	sql int
}

// serveSetup generates the hot set and the phases' seeded Poisson
// schedules (with a fresh cold query per cold arrival), starts an
// in-process server with a plan cache, computes local SDP references for
// the hot set and warms the server up: every hot query once, then
// distinct cold queries until the cache is full.
func serveSetup(seed int64, runLen time.Duration, ob *obs.Observer) (*serveState, error) {
	st := &serveState{cat: workload.PaperSchema()}
	mix := loadgen.DefaultMix()
	totalW := 0
	for _, e := range mix {
		totalW += e.Weight
	}
	// Queries per mix entry come from one seeded stream per entry, drawn in
	// batches, so hot and cold queries never repeat one another.
	gens := make([]func() (*query.Query, error), len(mix))
	for i, e := range mix {
		spec := workload.Spec{Cat: st.cat, Topology: e.Topology, NumRelations: e.Rels, Seed: seed*1000 + int64(i)}
		var pending []*query.Query
		gens[i] = func() (*query.Query, error) {
			if len(pending) == 0 {
				var err error
				if pending, err = workload.Instances(spec, 64); err != nil {
					return nil, err
				}
				spec.Seed += 7919
			}
			q := pending[0]
			pending = pending[1:]
			return q, nil
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pickEntry := func() int {
		w := rng.Intn(totalW)
		for i, e := range mix {
			if w < e.Weight {
				return i
			}
			w -= e.Weight
		}
		return len(mix) - 1
	}
	add := func(entry int) (int, error) {
		q, err := gens[entry]()
		if err != nil {
			return 0, err
		}
		st.sqls = append(st.sqls, q.SQL())
		st.shapes = append(st.shapes, mix[entry].String())
		return len(st.sqls) - 1, nil
	}
	// Hot set: serveHot queries, split over the mix by weight.
	for i, e := range mix {
		for k := 0; k < serveHot*e.Weight/totalW; k++ {
			if _, err := add(i); err != nil {
				return nil, err
			}
		}
	}
	hot := len(st.sqls)
	st.hot = hot
	var warm []int
	for k := hot; k < serveCacheEntries; k++ {
		i, err := add(pickEntry())
		if err != nil {
			return nil, err
		}
		warm = append(warm, i)
	}
	for _, ph := range []struct {
		name  string
		qps   float64
		share float64
	}{{"light", serveLightQPS, 0.4}, {"heavy", serveHeavyQPS, 0.6}} {
		p := servePhase{name: ph.name, qps: ph.qps}
		phaseLen := time.Duration(ph.share * float64(runLen))
		var at time.Duration
		for {
			at += time.Duration(rng.ExpFloat64() / ph.qps * float64(time.Second))
			if at >= phaseLen {
				break
			}
			a := arrival{at: at, sql: rng.Intn(hot)}
			if rng.Float64() < serveMissShare {
				i, err := add(pickEntry())
				if err != nil {
					return nil, err
				}
				a.sql = i
			}
			p.arrivals = append(p.arrivals, a)
		}
		st.phases = append(st.phases, p)
	}
	for _, sql := range st.sqls {
		b, err := json.Marshal(server.OptimizeRequest{SQL: sql, Technique: "auto", TimeoutMS: serveDeadlineMS})
		if err != nil {
			return nil, err
		}
		st.bodies = append(st.bodies, b)
	}

	st.refs = newRefTable(st.cat, st.sqls)
	for i := 0; i < hot; i++ {
		if _, err := st.refs.cost(i, route.TechSDP); err != nil {
			return nil, fmt.Errorf("SDP reference: %w", err)
		}
	}

	st.cache = plancache.New(plancache.Options{MaxEntries: serveCacheEntries, Obs: ob})
	srv, err := server.New(server.Options{Cat: st.cat, Cache: st.cache, Obs: ob})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv, st.url = srv, "http://"+addr+"/optimize"
	var ws []arrival
	for i := 0; i < hot; i++ {
		ws = append(ws, arrival{sql: i})
	}
	for _, i := range warm {
		ws = append(ws, arrival{sql: i})
	}
	for _, r := range st.drive(ws) {
		if r.err != nil || r.code != http.StatusOK {
			st.close()
			return nil, fmt.Errorf("warm-up request failed: %v (status %d)", r.err, r.code)
		}
	}
	return st, nil
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx)
}

// reqResult is one request's timeline and answer.
type reqResult struct {
	sql                              int
	sched, dispatched, gotConn, done time.Time
	code                             int
	resp                             *server.OptimizeResponse
	err                              error
}

func (r *reqResult) latency() time.Duration { return r.done.Sub(r.sched) }

// drive sends the arrivals open-loop: a dispatcher releases each request
// at its scheduled offset regardless of outstanding responses, and
// serveConns client goroutines, one keep-alive connection each, send them
// in order. A zero schedule (all offsets 0) makes it a closed loop over
// the connections.
func (st *serveState) drive(arrivals []arrival) []reqResult {
	conns := serveConns()
	client := &http.Client{
		Timeout: serveClientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()
	res := make([]reqResult, len(arrivals))
	// Buffered to the number of sends: the dispatcher never blocks, so a
	// stalled server shows as latency, not as generator lag.
	queue := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				st.send(client, &res[i])
			}
		}()
	}
	start := time.Now()
	for i, a := range arrivals {
		sched := start.Add(a.at)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		res[i] = reqResult{sql: a.sql, sched: sched, dispatched: time.Now()}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

func (st *serveState) send(client *http.Client, r *reqResult) {
	defer func() { r.done = time.Now() }()
	req, err := http.NewRequest(http.MethodPost, st.url, bytes.NewReader(st.bodies[r.sql]))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { r.gotConn = time.Now() },
	}))
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.code = resp.StatusCode
	var body server.OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		r.err = fmt.Errorf("decoding response: %w", err)
		return
	}
	r.resp = &body
}

// refTable memoizes in-process optimizations of the pool's queries: the
// checker's expected cost per (query, technique) and plan_cost_ratio's
// SDP reference.
type refTable struct {
	cat  *catalog.Catalog
	sqls []string
	qs   map[int]*query.Query
	c    map[refKey]float64
}

type refKey struct {
	sql  int
	tech string
}

func newRefTable(cat *catalog.Catalog, sqls []string) *refTable {
	return &refTable{cat: cat, sqls: sqls, qs: map[int]*query.Query{}, c: map[refKey]float64{}}
}

func (t *refTable) cost(sql int, tech string) (float64, error) {
	k := refKey{sql, tech}
	if c, ok := t.c[k]; ok {
		return c, nil
	}
	q, ok := t.qs[sql]
	if !ok {
		var err error
		if q, err = parse.SQL(t.cat, t.sqls[sql]); err != nil {
			return 0, err
		}
		t.qs[sql] = q
	}
	p, _, err := server.Optimize(context.Background(), tech, q, memo.DefaultBudget, 0, nil)
	if err != nil {
		return 0, err
	}
	t.c[k] = p.Cost
	return p.Cost, nil
}

// phaseResult is one rate's requests, checked.
type phaseResult struct {
	phase  servePhase
	res    []reqResult
	lats   []float64 // ms from scheduled send; failures are +Inf
	failed int
	causes map[string]int
	ratios []float64
	counts plancache.Counts // cache counter deltas over the phase
	cpu    time.Duration    // process CPU time over the phase
	rt     rtDelta
}

// runPhase drives one rate and checks every answer outside the timed
// window.
func (st *serveState) runPhase(ph servePhase) *phaseResult {
	c0 := st.cache.Counts()
	r0 := readRuntime()
	var res []reqResult
	t := timeCall(func() { res = st.drive(ph.arrivals) })
	pr := &phaseResult{phase: ph, res: res, causes: map[string]int{}, cpu: t.cpu}
	pr.rt.add(r0, readRuntime())
	c1 := st.cache.Counts()
	pr.counts = plancache.Counts{
		Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses, Dedups: c1.Dedups - c0.Dedups,
		Evictions: c1.Evictions - c0.Evictions, Entries: c1.Entries,
	}
	for i := range res {
		r := &res[i]
		err := r.err
		if err == nil {
			err = checkResponse(r.code, r.resp, func(tech string) (float64, error) { return st.refs.cost(r.sql, tech) })
		}
		if err != nil {
			pr.failed++
			pr.causes[failureCause(r)]++
			pr.lats = append(pr.lats, math.Inf(1))
			continue
		}
		pr.lats = append(pr.lats, ms(r.latency()))
		if r.sql < st.hot {
			// Set-up computed the hot set's SDP references.
			ref, _ := st.refs.cost(r.sql, route.TechSDP)
			pr.ratios = append(pr.ratios, r.resp.Cost/ref)
		}
	}
	return pr
}

func failureCause(r *reqResult) string {
	switch {
	case r.err != nil:
		return "client error or timeout"
	case r.code != http.StatusOK:
		return fmt.Sprintf("status %d", r.code)
	default:
		return "checker rejected the cost"
	}
}

func runServe(cfg runConfig) (*metricsOut, *tally, error) {
	runLen := cfg.seconds
	if cfg.trace {
		// The traced run replays the schedule on a second, traced server;
		// each pass gets half the time.
		runLen /= 2
	}
	var st *serveState
	setup, err := timeSetup(3, func() error {
		if st != nil {
			st.close()
		}
		var err error
		st, err = serveSetup(cfg.seed, runLen, nil)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	plain := st.runAll()
	st.close()
	t := &tally{}
	plain.tally(t, "untraced", st)

	m := newMetrics()
	if !cfg.trace {
		m.set("setup_s", "s", setup)
		// p99 is printed per phase (see tally) but not reported: on a
		// shared two-core host it moved by a quarter to a half between
		// seeds, too much to bound.
		var cpu time.Duration
		for _, pr := range plain {
			fmt.Printf("serve-mixed %s: p50 %.3f ms, p95 %.3f ms\n", pr.phase.name, median(pr.lats), quantile(pr.lats, 0.95))
			cpu += pr.cpu
		}
		lats := plain.lats()
		m.set("opt_per_s", "1/s", float64(len(lats)-t.failed)/cpu.Seconds())
		m.set("latency_p50_ms", "ms", median(lats))
		m.set("peak_rss_mb", "MB", peakRSSMB())
		m.set("plan_cost_ratio", "ratio", geomean(append(plain[0].ratios, plain[1].ratios...)))
		return m, t, nil
	}

	ob := obs.New(&obs.MemSink{})
	tst, err := serveSetup(cfg.seed, runLen, ob)
	if err != nil {
		return nil, nil, err
	}
	traced := tst.runAll()
	tst.close()
	traced.tally(t, "traced", tst)
	traced.report(m)
	var plainRT rtDelta
	reqs := 0
	for _, pr := range plain {
		plainRT.merge(&pr.rt)
		reqs += len(pr.res)
	}
	plainRT.report(m, reqs)
	parseUS, canonUS := parseProbe(st.cat, st.sqls[:st.hot])
	m.set("parse.sql_us", "us", parseUS)
	m.set("query.canon_us", "us", canonUS)
	m.set("obs.trace_overhead", "ratio", median(traced.lats())/median(plain.lats()))
	return m, t, nil
}

type phaseResults []*phaseResult

// lats is every phase's request latencies, in ms.
func (ps phaseResults) lats() []float64 {
	var out []float64
	for _, pr := range ps {
		out = append(out, pr.lats...)
	}
	return out
}

func (st *serveState) runAll() phaseResults {
	var out phaseResults
	for _, ph := range st.phases {
		out = append(out, st.runPhase(ph))
	}
	return out
}

func (ps phaseResults) tally(t *tally, pass string, st *serveState) {
	for _, pr := range ps {
		t.attempted += len(pr.res)
		t.failed += pr.failed
		fmt.Printf("serve-mixed %s %s: %d requests at %.0f/s", pass, pr.phase.name, len(pr.res), pr.phase.qps)
		if pr.failed > 0 {
			causes := make([]string, 0, len(pr.causes))
			for c := range pr.causes {
				causes = append(causes, c)
			}
			sort.Strings(causes)
			fmt.Printf(", %d failed:", pr.failed)
			for _, c := range causes {
				fmt.Printf(" %s=%d", c, pr.causes[c])
			}
		}
		fmt.Println()
		// What the slowest 1 % were: the requests that set p99.
		p99 := quantile(pr.lats, 0.99)
		tail := map[string]int{}
		for i := range pr.res {
			r := &pr.res[i]
			if pr.lats[i] < p99 || r.resp == nil {
				continue
			}
			tail[fmt.Sprintf("%s/%s/%s", r.resp.Source, r.resp.Technique, st.shapes[r.sql])]++
		}
		keys := make([]string, 0, len(tail))
		for k := range tail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("serve-mixed %s %s: p99 %.1f ms, at or beyond it:", pass, pr.phase.name, p99)
		for _, k := range keys {
			fmt.Printf(" %s=%d", k, tail[k])
		}
		fmt.Println()
	}
}

// report adds the serving-path layer metrics of a traced pass.
func (ps phaseResults) report(m *metricsOut) {
	var hitServer, overhead, missEngine, connWait, net []float64
	var ok, shed, demoted, downgraded float64
	var costed, classes, peakSimMB float64
	tech := map[string]float64{}
	var counts plancache.Counts
	total := 0
	for _, pr := range ps {
		counts.Hits += pr.counts.Hits
		counts.Misses += pr.counts.Misses
		counts.Dedups += pr.counts.Dedups
		counts.Evictions += pr.counts.Evictions
		counts.Entries = pr.counts.Entries
		var lag []float64
		for i := range pr.res {
			r := &pr.res[i]
			total++
			lag = append(lag, ms(r.dispatched.Sub(r.sched)))
			if r.code == http.StatusTooManyRequests {
				shed++
			}
			if r.err != nil || r.resp == nil || r.code != http.StatusOK {
				continue
			}
			ok++
			tech[r.resp.Technique]++
			switch r.resp.RouteReason {
			case route.ReasonDeadlineDemote:
				demoted++
			case route.ReasonDeadlineDowngrade:
				downgraded++
			}
			serverNS := time.Duration(r.resp.ServerNS)
			wait := r.gotConn.Sub(r.sched)
			connWait = append(connWait, ms(wait))
			net = append(net, ms(r.latency()-serverNS-wait))
			switch r.resp.Source {
			case plancache.Hit.String():
				hitServer = append(hitServer, us(serverNS))
			case plancache.Miss.String():
				engine := time.Duration(r.resp.Stats.ElapsedNS)
				costed += float64(r.resp.Stats.PlansCosted)
				classes += float64(r.resp.Stats.ClassesCreated)
				peakSimMB += r.resp.Stats.PeakSimMB
				missEngine = append(missEngine, ms(engine))
				overhead = append(overhead, us(serverNS-engine))
			}
		}
		m.set(pr.phase.name+".gen.lag_p99_ms", "ms", quantile(lag, 0.99))
	}
	n := float64(total)
	// The engines' work on misses, spread over every request.
	m.set("dp.plans_costed", "count", costed/n)
	m.set("memo.classes_created", "count", classes/n)
	m.set("memo.peak_sim_mb", "MB", peakSimMB/n)
	m.set("plancache.hit_ratio", "ratio", counts.HitRate())
	m.set("plancache.dedups", "count", float64(counts.Dedups)/n)
	m.set("plancache.evictions", "count", float64(counts.Evictions)/n)
	m.set("plancache.entries", "count", float64(counts.Entries))
	m.set("plancache.hit_server_us", "us", median(hitServer))
	for _, t := range []string{route.TechSDP, route.TechIDP, route.TechGreedy} {
		m.set("route.share."+t, "ratio", tech[t]/ok)
	}
	m.set("route.demotions", "ratio", demoted/n)
	m.set("route.downgrades", "ratio", downgraded/n)
	m.set("server.overhead_us", "us", median(overhead))
	m.set("server.miss_engine_p50_ms", "ms", median(missEngine))
	m.set("server.miss_engine_p99_ms", "ms", quantile(missEngine, 0.99))
	m.set("server.shed", "ratio", shed/n)
	m.set("client.conn_wait_p50_ms", "ms", median(connWait))
	m.set("client.conn_wait_p99_ms", "ms", quantile(connWait, 0.99))
	m.set("client.net_ms", "ms", median(net))
}

// parseProbe times parse.SQL and Canon+Fingerprint on the hot set's SQL
// text: the median per call over repeated sweeps. Every sweep parses
// afresh, since a query memoizes its canonical frame.
func parseProbe(cat *catalog.Catalog, sqls []string) (parseUS, canonUS float64) {
	var ps, cs []float64
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) || len(ps) < 5 {
		var pt, ct time.Duration
		for _, s := range sqls {
			t0 := time.Now()
			q, err := parse.SQL(cat, s)
			pt += time.Since(t0)
			if err != nil {
				continue
			}
			t0 = time.Now()
			q.Canon()
			_ = q.Fingerprint()
			ct += time.Since(t0)
		}
		ps = append(ps, us(pt)/float64(len(sqls)))
		cs = append(cs, us(ct)/float64(len(sqls)))
	}
	return median(ps), median(cs)
}
