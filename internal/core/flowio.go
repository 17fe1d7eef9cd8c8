package core

import (
	"fmt"
	"sort"

	"mimdloop/internal/classify"
	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
)

// flowSetLatency returns the total latency L of a node subset: the
// sequential cycles one iteration of the subset needs.
func flowSetLatency(g *graph.Graph, nodes []int) int {
	sum := 0
	for _, v := range nodes {
		sum += g.Nodes[v].Latency
	}
	return sum
}

// flowProcessorCount is the paper's p = ceil(L/H) generalized to patterns
// that advance d iterations per period of T cycles: each processor must
// absorb L cycles of work every p * (T/d) cycles, so p = ceil(L*d / T).
func flowProcessorCount(l, periodCycles, iterShift int) int {
	if l == 0 {
		return 0
	}
	if periodCycles <= 0 || iterShift <= 0 {
		return 1
	}
	p := (l*iterShift + periodCycles - 1) / periodCycles
	if p < 1 {
		p = 1
	}
	return p
}

// placeFlowSet schedules the given subset (Flow-in or Flow-out) for n
// iterations, iteration i on processor procBase + (i mod procCount)
// (algorithm Flow-in-sched / Flow-out-sched, Figure 5), or — when procPick
// is non-nil — on whichever of the listed processors can start each node
// earliest (the Section 3 folding heuristic). Nodes within an iteration go
// in body order; start times respect every already-placed predecessor under
// the timing model. Placements are appended to sched, indexed in idx, and
// booked on lines (one timeline per processor).
func placeFlowSet(
	sched *plan.Schedule,
	idx *plan.Table,
	lines []timeline,
	subset []int,
	n, procBase, procCount int,
	procPick []int,
) error {
	g := sched.Graph
	if len(subset) == 0 {
		return nil
	}
	order := make([]int, 0, len(subset))
	rank := g.BodyRank()
	order = append(order, subset...)
	sort.Slice(order, func(i, j int) bool { return rank[order[i]] < rank[order[j]] })

	readyOn := func(v, iter, q int) (int, error) {
		ready := 0
		for _, ei := range g.In(v) {
			e := g.Edges[ei]
			srcIter := iter - e.Distance
			if srcIter < 0 {
				continue
			}
			pi := idx.Get(e.From, srcIter)
			if pi < 0 {
				return 0, fmt.Errorf("core: flow placement of (%s, iter %d) before predecessor (%s, iter %d)",
					g.Nodes[v].Name, iter, g.Nodes[e.From].Name, srcIter)
			}
			pl := sched.Placements[pi]
			if a := sched.Timing.Avail(pl, g.Nodes[pl.Node].Latency, e, q); a > ready {
				ready = a
			}
		}
		return ready, nil
	}

	for iter := 0; iter < n; iter++ {
		for _, v := range order {
			lat := g.Nodes[v].Latency
			var proc, start int
			if procPick != nil {
				proc, start = -1, 0
				for _, q := range procPick {
					ready, err := readyOn(v, iter, q)
					if err != nil {
						return err
					}
					t := lines[q].fit(ready, lat, false)
					if proc == -1 || t < start {
						proc, start = q, t
					}
				}
			} else {
				proc = procBase + iter%procCount
				ready, err := readyOn(v, iter, proc)
				if err != nil {
					return err
				}
				start = lines[proc].fit(ready, lat, false)
			}
			lines[proc].insert(start, lat)
			idx.Set(v, iter, len(sched.Placements))
			sched.Placements = append(sched.Placements, plan.Placement{Node: v, Iter: iter, Proc: proc, Start: start})
		}
	}
	return nil
}

// flowInDelay computes how many cycles the already-placed Cyclic schedule
// must be delayed so that every Cyclic consumer starts at or after the
// availability of its Flow-in inputs. cyclicSet marks Cyclic node IDs.
func flowInDelay(sched *plan.Schedule, idx *plan.Table, class *classify.Result) int {
	g := sched.Graph
	delay := 0
	for _, pl := range sched.Placements {
		if class.Of[pl.Node] != classify.Cyclic {
			continue
		}
		for _, ei := range g.In(pl.Node) {
			e := g.Edges[ei]
			if class.Of[e.From] != classify.FlowIn {
				continue
			}
			srcIter := pl.Iter - e.Distance
			if srcIter < 0 {
				continue
			}
			pi := idx.Get(e.From, srcIter)
			if pi < 0 {
				continue
			}
			prod := sched.Placements[pi]
			avail := sched.Timing.Avail(prod, g.Nodes[prod.Node].Latency, e, pl.Proc)
			if d := avail - pl.Start; d > delay {
				delay = d
			}
		}
	}
	return delay
}
