package core

import (
	"fmt"

	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
)

// ComponentSchedule is the Cyclic-sched result for one weakly-connected
// component of a Cyclic subgraph.
type ComponentSchedule struct {
	// Result is the per-component scheduling outcome (node IDs local to
	// the component subgraph).
	Result *CyclicResult
	// Map sends component-local node IDs back to the input graph's IDs.
	Map []int
	// ProcBase is the first processor index assigned to this component in
	// the merged schedule.
	ProcBase int
	// Procs is the number of processors reserved for the component.
	Procs int
}

// MultiResult schedules a possibly-disconnected graph by running
// Cyclic-sched on each weakly-connected component independently, as Section
// 2.1 prescribes, and laying the components out on disjoint processor
// blocks.
type MultiResult struct {
	Graph      *graph.Graph
	Opts       Options
	Components []ComponentSchedule
	Processors int
}

// CyclicSchedAll splits g into weakly-connected components, runs
// Cyclic-sched on each, and returns the combined result. opts.Processors is
// the per-component processor budget (0 = one per component node).
func CyclicSchedAll(g *graph.Graph, opts Options) (*MultiResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	m := &MultiResult{Graph: g, Opts: opts}
	for _, comp := range g.ConnectedComponents() {
		sub, back, err := g.InducedSubgraph(comp)
		if err != nil {
			return nil, err
		}
		copts := opts
		if copts.Processors == 0 {
			copts.Processors = sub.N()
		}
		res, err := CyclicSched(sub, copts)
		if err != nil {
			return nil, fmt.Errorf("core: component %v: %w", comp, err)
		}
		m.Components = append(m.Components, ComponentSchedule{
			Result:   res,
			Map:      back,
			ProcBase: m.Processors,
			Procs:    usedProcs(res.Greedy),
		})
		m.Processors += usedProcs(res.Greedy)
	}
	return m, nil
}

// RatePerIteration returns the steady-state cycles per iteration of the
// merged schedule: the slowest component binds the loop.
func (m *MultiResult) RatePerIteration() float64 {
	worst := 0.0
	for _, c := range m.Components {
		if r := c.Result.Pattern.RatePerIteration(); r > worst {
			worst = r
		}
	}
	return worst
}

// slowestPeriod returns the (cycles, iterShift) pair of the component with
// the worst rate, used to size the Flow-in/Flow-out processor pools.
func (m *MultiResult) slowestPeriod() (int, int) {
	bestT, bestD := 0, 1
	worst := -1.0
	for _, c := range m.Components {
		p := c.Result.Pattern
		if r := p.RatePerIteration(); r > worst {
			worst = r
			bestT, bestD = p.Cycles(), p.IterShift
		}
	}
	return bestT, bestD
}

// SinglePattern returns the pattern when the graph has exactly one
// component, else nil.
func (m *MultiResult) SinglePattern() *Pattern {
	if len(m.Components) != 1 {
		return nil
	}
	return m.Components[0].Result.Pattern
}

// Expand merges the per-component n-iteration expansions into one schedule
// over the input graph's node IDs and the disjoint processor blocks.
func (m *MultiResult) Expand(n int) (*plan.Schedule, error) {
	out := &plan.Schedule{
		Graph:      m.Graph,
		Timing:     plan.Timing{CommCost: m.Opts.CommCost, CommFromStart: m.Opts.CommFromStart},
		Processors: m.Processors,
		Placements: make([]plan.Placement, 0, n*m.Graph.N()),
	}
	for _, c := range m.Components {
		part, err := c.Result.Expand(n)
		if err != nil {
			return nil, err
		}
		for _, pl := range part.Placements {
			out.Placements = append(out.Placements, plan.Placement{
				Node:  c.Map[pl.Node],
				Iter:  pl.Iter,
				Proc:  pl.Proc + c.ProcBase,
				Start: pl.Start,
			})
		}
	}
	if err := out.Validate(true); err != nil {
		return nil, fmt.Errorf("core: merged expansion invalid: %w", err)
	}
	return out, nil
}
