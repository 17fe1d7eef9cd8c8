package core

import (
	"fmt"
	"sort"

	"mimdloop/internal/graph"
	"mimdloop/internal/pattern"
	"mimdloop/internal/plan"
)

// Pattern is the steady-state segment extracted from the greedy schedule:
// the placements whose start cycle lies in [Start, End) repeat forever,
// with iteration indices advancing by IterShift per period of Cycles()
// cycles.
type Pattern struct {
	Start     int
	End       int
	IterShift int
	// Placements hold the pattern's operations with their absolute cycles
	// and iteration numbers as they first occurred in the greedy schedule,
	// sorted by (start, processor).
	Placements []plan.Placement
	// Forced marks a pattern constructed by the modulo-scheduling fallback
	// (see forcePattern) rather than detected as a configuration repeat;
	// its expansion is purely periodic from iteration 0 with no greedy
	// prologue.
	Forced bool
}

// Cycles returns the period length.
func (p *Pattern) Cycles() int { return p.End - p.Start }

// RatePerIteration returns steady-state cycles per iteration.
func (p *Pattern) RatePerIteration() float64 {
	return float64(p.Cycles()) / float64(p.IterShift)
}

func (p *Pattern) String() string {
	return fmt.Sprintf("pattern cycles [%d,%d) advancing %d iteration(s): %.3g cycles/iteration",
		p.Start, p.End, p.IterShift, p.RatePerIteration())
}

// CyclicResult is the outcome of Cyclic-sched on one graph.
type CyclicResult struct {
	Graph *graph.Graph
	Opts  Options
	// Greedy is the greedy prefix schedule produced up to the point the
	// pattern was verified (or the budget exhausted).
	Greedy *plan.Schedule
	// Pattern is the verified steady state; nil when ErrNoPattern.
	Pattern *Pattern
}

// CyclicSched runs the paper's Figure 4 algorithm on g, which is expected
// to be (but need not be) a Cyclic subset: every dynamic instance is placed
// on the processor that can start it earliest under the communication
// model, in a deterministic ready order, until a configuration repeat is
// verified.
//
// Nodes with no predecessors at all are given an implicit sequential
// self-dependence (iteration i+1 becomes ready when iteration i is placed);
// in a genuine Cyclic subset such nodes cannot occur, but this keeps the
// scheduler total on arbitrary graphs.
func CyclicSched(g *graph.Graph, opts Options) (*CyclicResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(g)
	timing := plan.Timing{CommCost: opts.CommCost, CommFromStart: opts.CommFromStart}
	res := &CyclicResult{
		Graph: g,
		Opts:  opts,
		Greedy: &plan.Schedule{
			Graph:      g,
			Timing:     timing,
			Processors: opts.Processors,
		},
	}

	rank := g.BodyRank()
	procs := make([]timeline, opts.Processors)
	det := pattern.NewDetector(opts.Processors, opts.WindowHeight)
	placed := plan.NewTable(g.N(), 0) // instance -> placement index
	// Sticky placement state (chunk graphs only): the processor that ran
	// each node's most recent iteration. See Options.chunkLocality.
	var lastProc map[int]int
	if opts.chunkLocality {
		lastProc = make(map[int]int, g.N())
	}
	pending := plan.NewTable(g.N(), 0) // instance -> predecessors left to place
	queue := &readyQueue{fifo: opts.FIFOOrder}
	gate := newDriftGate(opts.DriftBound, g.N())

	// Seed every instance with no dynamic predecessors: iteration i of v
	// qualifies while i is smaller than v's minimum incoming distance
	// (predecessor-free nodes are seeded one iteration at a time below).
	for v := 0; v < g.N(); v++ {
		if len(g.In(v)) == 0 {
			queue.add(readyEntry{node: v, iter: 0, rank: rank[v]})
			continue
		}
		for i := 0; g.InstancePredCount(v, i) == 0; i++ {
			queue.add(readyEntry{node: v, iter: i, rank: rank[v]})
		}
	}
	if queue.Len() == 0 {
		return nil, fmt.Errorf("core: no schedulable roots (every node has an iteration-0 predecessor)")
	}

	// availOn computes when instance inst's value reaches processor q.
	availOn := func(pl plan.Placement, e graph.Edge, q int) int {
		return timing.Avail(pl, g.Nodes[pl.Node].Latency, e, q)
	}

	for queue.Len() > 0 {
		ent := queue.next()
		if ent.iter >= opts.MaxIterations {
			// No configuration repeat within budget: fall back to the
			// modulo-scheduling construction seeded by the greedy warm-up.
			if ferr := res.forcePattern(); ferr != nil {
				return res, fmt.Errorf("%w (budget %d iterations, %d placements; fallback: %v)",
					ErrNoPattern, opts.MaxIterations, len(res.Greedy.Placements), ferr)
			}
			return res, nil
		}
		if gate.blocked(ent.iter) {
			gate.park(ent)
			continue
		}
		v, iter := ent.node, ent.iter
		lat := g.Nodes[v].Latency

		// Per-processor ready time from predecessors and the drift floor.
		bestProc, bestStart := -1, 0
		prevProc, prevStart := -1, 0
		if lastProc != nil {
			if p, ok := lastProc[v]; ok {
				prevProc = p
			}
		}
		floor := gate.floor(iter)
		for q := 0; q < opts.Processors; q++ {
			ready := floor
			if len(g.In(v)) > 0 {
				for _, ei := range g.In(v) {
					e := g.Edges[ei]
					srcIter := iter - e.Distance
					if srcIter < 0 {
						continue
					}
					pi := placed.Get(e.From, srcIter)
					if a := availOn(res.Greedy.Placements[pi], e, q); a > ready {
						ready = a
					}
				}
			} else if iter > 0 {
				// Implicit self-ordering for predecessor-free nodes.
				prev := res.Greedy.Placements[placed.Get(v, iter-1)]
				if fin := prev.Start + lat; fin > ready {
					ready = fin
				}
			}
			t := procs[q].fit(ready, lat, opts.AppendOnly)
			if q == prevProc {
				prevStart = t
			}
			if bestProc == -1 || t < bestStart {
				bestProc, bestStart = q, t
			}
		}
		// Sticky override: stay where the previous iteration ran unless
		// moving starts this instance more than CommCost cycles earlier
		// — a move pays k on the way out and k again when the node's
		// recurrence pulls the value back, so up to k cycles of delay is
		// repaid before the next chunk boundary.
		if prevProc >= 0 && bestProc != prevProc && prevStart <= bestStart+opts.CommCost {
			bestProc, bestStart = prevProc, prevStart
		}

		pl := plan.Placement{Node: v, Iter: iter, Proc: bestProc, Start: bestStart}
		pi := len(res.Greedy.Placements)
		res.Greedy.Placements = append(res.Greedy.Placements, pl)
		placed.Set(v, iter, pi)
		if lastProc != nil {
			lastProc[v] = bestProc
		}
		procs[bestProc].insert(bestStart, lat)
		det.Add(v, iter, bestProc, bestStart, lat)
		for _, rel := range gate.record(iter, bestStart+lat) {
			queue.add(rel)
		}

		// Wake successors. A released instance is never woken again, so
		// its count may stay at 0.
		for _, ei := range g.Out(v) {
			e := g.Edges[ei]
			child, childIter := e.To, iter+e.Distance
			left := pending.Get(child, childIter)
			if left < 0 {
				left = g.InstancePredCount(child, childIter)
			}
			left--
			if left == 0 {
				queue.add(readyEntry{
					node:  child,
					iter:  childIter,
					rank:  rank[child],
					lower: lowerBound(g, res.Greedy.Placements, &placed, child, childIter),
				})
			}
			pending.Set(child, childIter, left)
		}
		if len(g.In(v)) == 0 {
			// Implicit self-ordering seeding.
			queue.add(readyEntry{node: v, iter: iter + 1, rank: rank[v], lower: bestStart + lat})
		}

		stable := queue.stableTime()
		if dl := gate.minDeferredLower(); dl < stable {
			stable = dl
		}
		if m, ok := det.Find(stable); ok {
			res.Pattern = extractPattern(res.Greedy, m)
			return res, nil
		}
	}
	// Unreachable for cyclic inputs: the queue cannot drain while
	// unwinding is unbounded. It can drain for finite DAGs only.
	return res, fmt.Errorf("%w (ready queue drained after %d placements)", ErrNoPattern, len(res.Greedy.Placements))
}

// lowerBound returns the cheapest possible start of unplaced instance
// (v, iter): the latest local finish among its placed predecessors
// (cross-processor availability can only be later).
func lowerBound(g *graph.Graph, pls []plan.Placement, placed *plan.Table, v, iter int) int {
	lb := 0
	for _, ei := range g.In(v) {
		e := g.Edges[ei]
		srcIter := iter - e.Distance
		if srcIter < 0 {
			continue
		}
		pl := pls[placed.Get(e.From, srcIter)]
		if fin := pl.Start + g.Nodes[pl.Node].Latency; fin > lb {
			lb = fin
		}
	}
	return lb
}

// extractPattern cuts the verified period out of the greedy schedule.
func extractPattern(s *plan.Schedule, m pattern.Match) *Pattern {
	p := &Pattern{Start: m.Start, End: m.End, IterShift: m.IterShift}
	for _, pl := range s.Placements {
		if pl.Start >= m.Start && pl.Start < m.End {
			p.Placements = append(p.Placements, pl)
		}
	}
	sort.Slice(p.Placements, func(i, j int) bool {
		a, b := p.Placements[i], p.Placements[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Proc < b.Proc
	})
	return p
}
