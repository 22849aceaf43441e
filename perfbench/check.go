package main

import (
	"fmt"
	"math"
	"net/http"

	"sdpopt/internal/bits"
	"sdpopt/internal/cost"
	"sdpopt/internal/plan"
	"sdpopt/internal/query"
	"sdpopt/internal/server"
)

// checkPlan is the output checker every optimization passes through,
// outside the timed window. It rejects a plan unless:
//   - each query relation appears exactly once among the leaves, and the
//     root covers all of them;
//   - join children are disjoint (plan.Validate, which also checks the
//     per-node relation masks);
//   - cost.Model.Recost under a fresh model reproduces every node's cost
//     and cardinality bit for bit.
func checkPlan(q *query.Query, p *plan.Plan) error {
	if p == nil {
		return fmt.Errorf("check: nil plan")
	}
	n := q.NumRelations()
	seen := make([]int, n)
	var leaves func(*plan.Plan) error
	leaves = func(x *plan.Plan) error {
		if x == nil {
			return nil
		}
		if x.Op.IsScan() {
			if x.Rel < 0 || x.Rel >= n {
				return fmt.Errorf("check: scan of relation %d outside [0,%d)", x.Rel, n)
			}
			seen[x.Rel]++
			return nil
		}
		if err := leaves(x.Left); err != nil {
			return err
		}
		return leaves(x.Right)
	}
	if err := leaves(p); err != nil {
		return err
	}
	for r, c := range seen {
		if c != 1 {
			return fmt.Errorf("check: relation %d appears %d times among the leaves", r, c)
		}
	}
	if p.Rels != bits.Full(n) {
		return fmt.Errorf("check: root covers %v, want all %d relations", p.Rels, n)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	r := cost.NewModel(q, cost.DefaultParams()).Recost(p)
	return sameBits(p, r)
}

// sameBits compares two trees of identical shape node by node on the
// exact bits of Cost and Rows.
func sameBits(p, r *plan.Plan) error {
	if (p == nil) != (r == nil) {
		return fmt.Errorf("check: recost changed the tree shape")
	}
	if p == nil {
		return nil
	}
	if math.Float64bits(p.Cost) != math.Float64bits(r.Cost) {
		return fmt.Errorf("check: %v over %v reports cost %v, recost gives %v", p.Op, p.Rels, p.Cost, r.Cost)
	}
	if math.Float64bits(p.Rows) != math.Float64bits(r.Rows) {
		return fmt.Errorf("check: %v over %v reports rows %v, recost gives %v", p.Op, p.Rels, p.Rows, r.Rows)
	}
	if err := sameBits(p.Left, r.Left); err != nil {
		return err
	}
	return sameBits(p.Right, r.Right)
}

// checkNotBelow rejects a heuristic plan cheaper than the exhaustive
// optimum: the heuristic's search space is a subset of DP's.
func checkNotBelow(p *plan.Plan, optimum float64) error {
	if p.Cost < optimum {
		return fmt.Errorf("check: plan cost %v is below the DP optimum %v", p.Cost, optimum)
	}
	return nil
}

// checkSame rejects two runs of one query, on the sequential and the
// parallel engine, that differ in plan (structure, costs, orders) or in
// plans costed.
func checkSame(a, b *plan.Plan, aCosted, bCosted int64) error {
	if plan.Compare(a, b) != 0 {
		return fmt.Errorf("check: the engines chose different plans (costs %v and %v)", a.Cost, b.Cost)
	}
	if aCosted != bCosted {
		return fmt.Errorf("check: the engines costed %d and %d plans", aCosted, bCosted)
	}
	return nil
}

// checkResponse rejects a served answer unless it is a 200 whose cost
// equals, bit for bit, the cost of an in-process optimization of the same
// query with the technique the response names (ref, looked up by the
// caller).
func checkResponse(code int, resp *server.OptimizeResponse, ref func(technique string) (float64, error)) error {
	if code != http.StatusOK {
		msg := ""
		if resp != nil {
			msg = resp.Error
		}
		return fmt.Errorf("check: status %d %s", code, msg)
	}
	if resp == nil {
		return fmt.Errorf("check: 200 without a body")
	}
	want, err := ref(resp.Technique)
	if err != nil {
		return fmt.Errorf("check: in-process %s: %w", resp.Technique, err)
	}
	if math.Float64bits(resp.Cost) != math.Float64bits(want) {
		return fmt.Errorf("check: served %s cost %v, in-process %v", resp.Technique, resp.Cost, want)
	}
	return nil
}
