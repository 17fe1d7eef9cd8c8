// Package doacross implements the iteration-pipelining baseline the paper
// compares against [Cytron86]: iterations are dealt round-robin to
// processors, each iteration executes its body sequentially in a fixed
// statement order, and loop-carried dependences are honored by
// synchronization whose cost equals the communication cost k.
//
// As in the paper's discussion of Figure 8, DOACROSS degenerates to
// sequential execution when synchronization cost erases the pipelining
// gain; Schedule therefore tries every processor count from 1 to
// MaxProcessors and keeps the best, so the baseline is never reported worse
// than sequential (percentage parallelism >= 0).
package doacross

import (
	"fmt"

	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
)

// Options configures the baseline.
type Options struct {
	// MaxProcessors is the largest processor count to try; the result uses
	// whichever p in [1, MaxProcessors] minimizes makespan (ties to the
	// smaller p). 0 means 8.
	MaxProcessors int
	// CommCost is the synchronization/communication cost k.
	CommCost int
	// CommFromStart selects the overlapped-communication ablation model.
	CommFromStart bool
	// Order fixes the body statement order; nil means the canonical
	// topological body order.
	Order []int
	// BestReorder searches topological orders of the body for the one
	// minimizing the steady-state iteration delay (the paper's "optimal
	// reordering ... obtained by an exhaustive search", Figure 8(b)).
	BestReorder bool
	// ReorderLimit caps the number of orders enumerated (0 = 20000).
	ReorderLimit int
	// HeuristicReorder uses HeuristicOrder as the body order: sources of
	// loop-carried dependences early, sinks late. The paper's Section 4
	// baseline separates non-Cyclic nodes "through reordering of
	// operations" (footnote 16); this is the equivalent courtesy on large
	// bodies where exhaustive search is infeasible. Ignored when Order is
	// set or BestReorder finds a better order.
	HeuristicReorder bool
}

// Result is a DOACROSS schedule and the parameters that produced it.
type Result struct {
	Schedule   *plan.Schedule
	Processors int   // chosen processor count
	Order      []int // body order used
	// Delay is the measured steady-state offset between consecutive
	// iteration start times at the chosen processor count (0 when fewer
	// than 2 iterations were scheduled).
	Delay int
}

// Schedule builds the best DOACROSS schedule for n iterations of g.
func Schedule(g *graph.Graph, opts Options, n int) (*Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("doacross: schedule %d iterations", n)
	}
	if opts.MaxProcessors < 0 {
		return nil, fmt.Errorf("doacross: negative processor bound")
	}
	if opts.CommCost < 0 {
		return nil, fmt.Errorf("doacross: negative communication cost")
	}
	if opts.MaxProcessors == 0 {
		opts.MaxProcessors = 8
	}
	order := opts.Order
	if order == nil {
		if opts.HeuristicReorder {
			order = HeuristicOrder(g)
		} else {
			order = g.BodyOrder()
		}
	}
	if err := checkOrder(g, order); err != nil {
		return nil, err
	}
	if opts.BestReorder {
		limit := opts.ReorderLimit
		if limit == 0 {
			limit = 20000
		}
		order = bestOrder(g, opts.CommCost, order, limit)
	}

	timing := plan.Timing{CommCost: opts.CommCost, CommFromStart: opts.CommFromStart}
	var best *Result
	for p := 1; p <= opts.MaxProcessors; p++ {
		s := buildFixed(g, timing, order, p, n)
		if best == nil || s.Makespan() < best.Schedule.Makespan() {
			best = &Result{Schedule: s, Processors: p, Order: order}
		}
	}
	best.Delay = measureDelay(best.Schedule, order[0])
	return best, nil
}

// buildFixed constructs the DOACROSS schedule for exactly p processors:
// iteration i runs on processor i mod p, statements in the given order,
// each starting as soon as its processor is free and its dependences are
// available under the timing model.
func buildFixed(g *graph.Graph, timing plan.Timing, order []int, p, n int) *plan.Schedule {
	s := &plan.Schedule{Graph: g, Timing: timing, Processors: p, Placements: make([]plan.Placement, 0, n*g.N())}
	idx := plan.NewTable(g.N(), n) // instance -> placement index
	clock := make([]int, p)
	for iter := 0; iter < n; iter++ {
		proc := iter % p
		for _, v := range order {
			start := clock[proc]
			for _, ei := range g.In(v) {
				e := g.Edges[ei]
				srcIter := iter - e.Distance
				if srcIter < 0 {
					continue
				}
				prod := s.Placements[idx.Get(e.From, srcIter)]
				if a := timing.Avail(prod, g.Nodes[prod.Node].Latency, e, proc); a > start {
					start = a
				}
			}
			pl := plan.Placement{Node: v, Iter: iter, Proc: proc, Start: start}
			idx.Set(v, iter, len(s.Placements))
			s.Placements = append(s.Placements, pl)
			clock[proc] = start + g.Nodes[v].Latency
		}
	}
	return s
}

// measureDelay reports the start-time gap between the first statement of
// the last two iterations — the achieved pipeline initiation interval.
func measureDelay(s *plan.Schedule, firstStmt int) int {
	iters := s.Iterations()
	if iters < 2 {
		return 0
	}
	var prev, last = -1, -1
	for _, pl := range s.Placements {
		if pl.Node != firstStmt {
			continue
		}
		switch pl.Iter {
		case iters - 2:
			prev = pl.Start
		case iters - 1:
			last = pl.Start
		}
	}
	if prev < 0 || last < 0 {
		return 0
	}
	return last - prev
}

func checkOrder(g *graph.Graph, order []int) error {
	if len(order) != g.N() {
		return fmt.Errorf("doacross: order covers %d of %d nodes", len(order), g.N())
	}
	pos := make([]int, g.N())
	seen := make([]bool, g.N())
	for i, v := range order {
		if v < 0 || v >= g.N() || seen[v] {
			return fmt.Errorf("doacross: order is not a permutation")
		}
		seen[v] = true
		pos[v] = i
	}
	for _, e := range g.Edges {
		if e.Distance == 0 && pos[e.From] >= pos[e.To] {
			return fmt.Errorf("doacross: order violates intra-iteration dependence %s -> %s",
				g.Nodes[e.From].Name, g.Nodes[e.To].Name)
		}
	}
	return nil
}
