package main

import (
	"context"
	"time"

	"sdpopt/internal/cost"
	"sdpopt/internal/dp"
	"sdpopt/internal/obs"
	"sdpopt/internal/obs/span"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
)

// tracedCall is the instrumentation one traced optimization carries: an
// observer with an in-memory event sink, so the engines emit their events
// and metrics as they would to a real trace consumer, and a request span
// registered with a flight recorder, which is how the span tree is read
// back.
type tracedCall struct {
	ob   *obs.Observer
	rec  *span.Recorder
	root *span.Span
	ctx  context.Context
}

func newTracedCall(name string) *tracedCall {
	// One recent slot and an unreachable slow threshold: the recorder
	// keeps exactly the trace just finished.
	rec := span.NewRecorder(span.RecorderOptions{Recent: 1, Notable: 1, SlowThreshold: time.Hour})
	root := span.New(name)
	rec.Start(root)
	return &tracedCall{
		ob:   obs.New(&obs.MemSink{}),
		rec:  rec,
		root: root,
		ctx:  span.NewContext(context.Background(), root),
	}
}

// spanTotals is the time a finished trace spent in spans of each name,
// summed over the whole tree.
func (t *tracedCall) spanTotals() map[string]time.Duration {
	t.rec.Finish(t.root, 200)
	out := map[string]time.Duration{}
	var walk func(s *span.SpanJSON)
	walk = func(s *span.SpanJSON) {
		out[s.Name] += time.Duration(s.DurNS)
		for i := range s.Children {
			walk(&s.Children[i])
		}
	}
	for _, tr := range t.rec.Snapshot().Traces() {
		if tr.Root != nil {
			walk(tr.Root)
		}
	}
	return out
}

// barrierWait is the summed worker idle time at pardp level barriers.
func (t *tracedCall) barrierWait() time.Duration {
	return t.ob.Histogram(obs.MParBarrierWait).Sum()
}

// layerTotals accumulates the per-op layer counters of a workload's
// traced optimizations.
type layerTotals struct {
	ops                           int
	considered, connected, costed float64
	classes, paths, peakSimMB     float64
	levelMS, otherMS              float64
	traced, untraced              []float64 // op latencies, ms
	joinInputs                    []joinInput
	rt                            rtDelta
}

func (l *layerTotals) addStats(st dp.Stats, spans map[string]time.Duration) {
	l.ops++
	l.considered += float64(st.PairsConsidered)
	l.connected += float64(st.PairsConnected)
	l.costed += float64(st.PlansCosted)
	l.classes += float64(st.Memo.ClassesCreated)
	l.paths += float64(st.Memo.PathsRetained)
	l.peakSimMB += st.Memo.PeakMB()
	lv := spans["level"]
	l.levelMS += ms(lv)
	l.otherMS += ms(st.Elapsed - lv)
}

func (l *layerTotals) report(m *metricsOut) {
	n := float64(l.ops)
	m.set("dp.pairs_considered", "count", l.considered/n)
	m.set("dp.pairs_connected", "count", l.connected/n)
	m.set("dp.pair_yield", "ratio", l.connected/l.considered)
	m.set("dp.plans_costed", "count", l.costed/n)
	m.set("cost.join_plans_ns", "ns", joinPlansNS(l.joinInputs))
	m.set("memo.classes_created", "count", l.classes/n)
	m.set("memo.paths_retained", "count", l.paths/n)
	m.set("memo.peak_sim_mb", "MB", l.peakSimMB/n)
	m.set("dp.level_ms", "ms", l.levelMS/n)
	m.set("dp.other_ms", "ms", l.otherMS/n)
	l.rt.report(m, len(l.untraced))
	m.set("obs.trace_overhead", "ratio", median(l.traced)/median(l.untraced))
}

// joinInput is one join the workload's own plans perform, replayable
// through cost.Model.AppendJoinPlans.
type joinInput struct {
	m  *cost.Model
	in cost.JoinInputs
}

// collectJoins records every join node of p as a costing input over a
// fresh model of q.
func collectJoins(q *query.Query, p *plan.Plan, dst []joinInput) []joinInput {
	m := cost.NewModel(q, cost.DefaultParams())
	var walk func(x *plan.Plan)
	walk = func(x *plan.Plan) {
		if x == nil {
			return
		}
		if x.Op.IsJoin() {
			dst = append(dst, joinInput{m: m, in: cost.JoinInputs{
				Outer: x.Left,
				Inner: x.Right,
				Preds: q.PredsBetween(x.Left.Rels, x.Right.Rels),
				Rows:  m.SetRows(x.Rels),
			}})
		}
		walk(x.Left)
		walk(x.Right)
	}
	walk(p)
	return dst
}

// joinPlansNS times one AppendJoinPlans call (both orientations count as
// separate calls, as in the engines) over the collected inputs: the
// median over repeated sweeps of the sweep's mean per call.
func joinPlansNS(inputs []joinInput) float64 {
	if len(inputs) == 0 {
		return 0
	}
	var buf []*plan.Plan
	var perCall []float64
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) || len(perCall) < 5 {
		t0 := time.Now()
		for _, j := range inputs {
			buf = j.m.AppendJoinPlans(buf[:0], j.in)
			buf = j.m.AppendJoinPlans(buf[:0], cost.JoinInputs{Outer: j.in.Inner, Inner: j.in.Outer, Preds: j.in.Preds, Rows: j.in.Rows})
		}
		perCall = append(perCall, float64(time.Since(t0).Nanoseconds())/float64(2*len(inputs)))
	}
	return median(perCall)
}
