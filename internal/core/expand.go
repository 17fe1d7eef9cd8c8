package core

import (
	"fmt"

	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
)

// Expand materializes a finite schedule for n iterations from the verified
// pattern: the greedy prologue (placements starting before the pattern)
// plus shifted replicas of the pattern period. The result is validated
// against the timing model; Lemma 7 says replication is exact, and the
// validation makes that a checked property rather than an assumption. If a
// detected pattern's replication turns out not to be the greedy schedule's
// true steady state (possible when the processor count is below the
// paper's sufficiency assumption and the repeat was a long-lived
// coincidence), Expand rebuilds the pattern with the modulo-scheduling
// fallback and retries — so a returned schedule is always valid.
func (r *CyclicResult) Expand(n int) (*plan.Schedule, error) {
	s, err := r.expandOnce(n)
	if err == nil {
		return s, nil
	}
	if r.Pattern != nil && !r.Pattern.Forced {
		if ferr := r.forcePattern(); ferr != nil {
			return nil, fmt.Errorf("%v; modulo fallback also failed: %v", err, ferr)
		}
		return r.expandOnce(n)
	}
	return nil, err
}

func (r *CyclicResult) expandOnce(n int) (*plan.Schedule, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: expand to %d iterations", n)
	}
	if r.Pattern == nil {
		return nil, fmt.Errorf("core: expand called without a pattern")
	}
	g := r.Graph
	p := r.Pattern
	out := &plan.Schedule{
		Graph:      g,
		Timing:     r.Greedy.Timing,
		Processors: r.Greedy.Processors,
		Placements: make([]plan.Placement, 0, n*g.N()),
	}
	if !p.Forced {
		for _, pl := range r.Greedy.Placements {
			if pl.Start < p.Start && pl.Iter < n {
				out.Placements = append(out.Placements, pl)
			}
		}
	}
	period := p.Cycles()
	for rep := 0; ; rep++ {
		minIter := -1
		added := false
		for _, pl := range p.Placements {
			iter := pl.Iter + rep*p.IterShift
			if minIter == -1 || iter < minIter {
				minIter = iter
			}
			if iter >= n {
				continue
			}
			out.Placements = append(out.Placements, plan.Placement{
				Node:  pl.Node,
				Iter:  iter,
				Proc:  pl.Proc,
				Start: pl.Start + rep*period,
			})
			added = true
		}
		if minIter >= n || (!added && minIter == -1) {
			break
		}
	}
	if len(out.Placements) != n*g.N() {
		return nil, fmt.Errorf("core: expansion produced %d placements for %d iterations of %d nodes",
			len(out.Placements), n, g.N())
	}
	if err := out.Validate(true); err != nil {
		return nil, fmt.Errorf("core: expanded schedule invalid: %w", err)
	}
	return out, nil
}

// GreedyN schedules exactly n iterations of g with the same greedy rule as
// CyclicSched but no pattern machinery. It is the fallback when no pattern
// is found, the reference the pattern expansion is compared against in
// tests, and the scheduler for DOALL-ish graphs.
func GreedyN(g *graph.Graph, opts Options, n int) (*plan.Schedule, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: schedule %d iterations", n)
	}
	opts = opts.withDefaults(g)
	timing := plan.Timing{CommCost: opts.CommCost, CommFromStart: opts.CommFromStart}
	out := &plan.Schedule{Graph: g, Timing: timing, Processors: opts.Processors, Placements: make([]plan.Placement, 0, n*g.N())}

	rank := g.BodyRank()
	procs := make([]timeline, opts.Processors)
	placed := plan.NewTable(g.N(), n)  // instance -> placement index
	pending := plan.NewTable(g.N(), n) // instance -> predecessors left to place
	queue := &readyQueue{fifo: opts.FIFOOrder}
	gate := newDriftGate(opts.DriftBound, g.N())
	for v := 0; v < g.N(); v++ {
		if len(g.In(v)) == 0 {
			queue.add(readyEntry{node: v, iter: 0, rank: rank[v]})
			continue
		}
		for i := 0; i < n && g.InstancePredCount(v, i) == 0; i++ {
			queue.add(readyEntry{node: v, iter: i, rank: rank[v]})
		}
	}
	for queue.Len() > 0 {
		ent := queue.next()
		if ent.iter >= n {
			continue
		}
		if gate.blocked(ent.iter) {
			gate.park(ent)
			continue
		}
		v, iter := ent.node, ent.iter
		lat := g.Nodes[v].Latency
		bestProc, bestStart := -1, 0
		floor := gate.floor(iter)
		for q := 0; q < opts.Processors; q++ {
			// Unlike CyclicSched, predecessor-free nodes get no implicit
			// sequential self-dependence here: with a finite horizon and
			// the drift gate there is no runaway to prevent, and DOALL
			// iterations should spread across processors freely.
			ready := floor
			for _, ei := range g.In(v) {
				e := g.Edges[ei]
				srcIter := iter - e.Distance
				if srcIter < 0 {
					continue
				}
				pl := out.Placements[placed.Get(e.From, srcIter)]
				if a := timing.Avail(pl, g.Nodes[pl.Node].Latency, e, q); a > ready {
					ready = a
				}
			}
			t := procs[q].fit(ready, lat, opts.AppendOnly)
			if bestProc == -1 || t < bestStart {
				bestProc, bestStart = q, t
			}
		}
		pl := plan.Placement{Node: v, Iter: iter, Proc: bestProc, Start: bestStart}
		placed.Set(v, iter, len(out.Placements))
		out.Placements = append(out.Placements, pl)
		procs[bestProc].insert(bestStart, lat)
		for _, rel := range gate.record(iter, bestStart+lat) {
			queue.add(rel)
		}
		for _, ei := range g.Out(v) {
			e := g.Edges[ei]
			child, childIter := e.To, iter+e.Distance
			if childIter >= n {
				continue
			}
			left := pending.Get(child, childIter)
			if left < 0 {
				left = g.InstancePredCount(child, childIter)
			}
			left--
			if left == 0 {
				queue.add(readyEntry{node: child, iter: childIter, rank: rank[child]})
			}
			pending.Set(child, childIter, left)
		}
		if len(g.In(v)) == 0 && iter+1 < n {
			queue.add(readyEntry{node: v, iter: iter + 1, rank: rank[v]})
		}
	}
	if len(out.Placements) != n*g.N() {
		return nil, fmt.Errorf("core: greedy placed %d of %d instances", len(out.Placements), n*g.N())
	}
	if err := out.Validate(true); err != nil {
		return nil, fmt.Errorf("core: greedy schedule invalid: %w", err)
	}
	return out, nil
}
