// Package plan defines the schedule representation shared by the pattern
// scheduler (internal/core), the DOACROSS baseline (internal/doacross), the
// code generator (internal/program) and the machine simulator
// (internal/machine): a set of timed placements of dynamic node instances
// onto processors, plus the timing model used to judge their validity.
package plan

import (
	"cmp"
	"fmt"
	"slices"

	"mimdloop/internal/graph"
)

// Placement records that iteration Iter of node Node runs on processor Proc
// during cycles [Start, Finish).
type Placement struct {
	Node  int
	Iter  int
	Proc  int
	Start int
}

// Key returns the instance identity of the placement.
func (p Placement) Key() graph.InstanceID { return graph.InstanceID{Node: p.Node, Iter: p.Iter} }

// Timing captures the communication model under which a schedule is
// constructed and validated.
type Timing struct {
	// CommCost is the machine-wide estimate k; edges may override it.
	CommCost int
	// CommFromStart, when true, makes a value available on a remote
	// processor at producerStart + cost instead of producerFinish + cost
	// (communication fully overlapped with the producing operation). This
	// is the alternative reading of the paper's figures, kept as an
	// ablation.
	CommFromStart bool
}

// Avail returns the cycle at which the value produced by placement p (of a
// node with the given latency) becomes usable on processor q via edge e.
func (t Timing) Avail(p Placement, latency int, e graph.Edge, q int) int {
	fin := p.Start + latency
	if p.Proc == q {
		return fin
	}
	c := graph.EdgeCost(e, t.CommCost)
	if t.CommFromStart {
		return p.Start + c
	}
	return fin + c
}

// Schedule is a static assignment of dynamic instances to processors.
//
// With Grain G > 1 the placements live in chunk space: placement
// iteration c stands for original iterations [c*G, (c+1)*G), Graph stays
// the original dependence graph, and every structural judgement —
// makespan, busy cycles, validation, program lowering — runs against
// EffectiveGraph (the grain-G chunk graph) instead of Graph directly.
type Schedule struct {
	Graph      *graph.Graph
	Timing     Timing
	Processors int // number of processors the schedule may use
	Placements []Placement
	// Grain is the number of consecutive original iterations each
	// placement instance fuses; values <= 1 mean plain iteration-space
	// placements (the schedule's Graph is its effective graph).
	Grain int
}

// EffectiveGraph returns the graph the placements are scheduled against:
// Graph itself for grain <= 1, the grain-G chunk graph otherwise. The
// chunk graph is a pure derivation of (Graph, Grain); a grain the
// schedule was actually built under always chunks successfully, so a
// failure here means the schedule was corrupted after construction.
func (s *Schedule) EffectiveGraph() *graph.Graph {
	if s.Grain <= 1 {
		return s.Graph
	}
	cg, err := graph.Chunked(s.Graph, s.Grain)
	if err != nil {
		panic("plan: chunk graph for scheduled grain failed: " + err.Error())
	}
	return cg
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	cp := *s
	cp.Placements = append([]Placement(nil), s.Placements...)
	return &cp
}

// Makespan returns the cycle at which the last operation finishes.
func (s *Schedule) Makespan() int {
	g := s.EffectiveGraph()
	end := 0
	for _, p := range s.Placements {
		fin := p.Start + g.Nodes[p.Node].Latency
		if fin > end {
			end = fin
		}
	}
	return end
}

// Iterations returns 1 + the largest iteration index placed (0 if empty).
func (s *Schedule) Iterations() int {
	n := 0
	for _, p := range s.Placements {
		if p.Iter+1 > n {
			n = p.Iter + 1
		}
	}
	return n
}

// ProcsUsed returns the number of distinct processors with at least one
// placement.
func (s *Schedule) ProcsUsed() int {
	seen := make([]uint64, s.procSpan()/64+1)
	used := 0
	for _, p := range s.Placements {
		w, bit := p.Proc/64, uint64(1)<<(p.Proc%64)
		if seen[w]&bit == 0 {
			seen[w] |= bit
			used++
		}
	}
	return used
}

// procSpan returns s.Processors, or the max proc index + 1 if larger.
func (s *Schedule) procSpan() int {
	n := s.Processors
	for _, p := range s.Placements {
		n = max(n, p.Proc+1)
	}
	return n
}

// ByProc returns placement indices grouped by processor, each group sorted
// by start cycle, then iteration, then node. The outer slice has length
// s.Processors (or the max proc index + 1 if larger); the groups share
// one backing array.
func (s *Schedule) ByProc() [][]int {
	out := make([][]int, s.procSpan())
	counts := make([]int, len(out))
	for _, p := range s.Placements {
		counts[p.Proc]++
	}
	all := make([]int, 0, len(s.Placements))
	for proc, c := range counts {
		if c > 0 {
			out[proc] = all[len(all) : len(all) : len(all)+c]
			all = all[:len(all)+c]
		}
	}
	for i, p := range s.Placements {
		out[p.Proc] = append(out[p.Proc], i)
	}
	for _, grp := range out {
		slices.SortFunc(grp, func(a, b int) int { return byStart(&s.Placements[a], &s.Placements[b]) })
	}
	return out
}

// byStart orders placements by start cycle, then iteration, then node: a
// total order on the placements of one processor.
func byStart(a, b *Placement) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Iter, b.Iter); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}

// Index returns the instance table of the placements: Get(node, iter) is
// the index of the placement of (node, iter), or -1 when it is unplaced.
// A twice-placed instance indexes its last placement. It fails on a
// placement outside the effective graph or at a negative iteration, and
// on a schedule too sparse to index (ErrSparse).
func (s *Schedule) Index() (Table, error) {
	n := s.EffectiveGraph().N()
	maxIter := -1
	for i, p := range s.Placements {
		if p.Node < 0 || p.Node >= n || p.Iter < 0 {
			return Table{}, fmt.Errorf("plan: placement %d is not an instance (node %d, iter %d)", i, p.Node, p.Iter)
		}
		maxIter = max(maxIter, p.Iter)
	}
	if err := checkSpan(n, maxIter, len(s.Placements)); err != nil {
		return Table{}, err
	}
	idx := NewTable(n, maxIter+1)
	for i, p := range s.Placements {
		idx.Set(p.Node, p.Iter, i)
	}
	return idx, nil
}

// BusyCycles returns the total number of processor-cycles spent computing.
func (s *Schedule) BusyCycles() int {
	g := s.EffectiveGraph()
	total := 0
	for _, p := range s.Placements {
		total += g.Nodes[p.Node].Latency
	}
	return total
}

// Utilization returns busy cycles / (makespan * processors used), in [0,1].
func (s *Schedule) Utilization() float64 {
	ms, pu := s.Makespan(), s.ProcsUsed()
	if ms == 0 || pu == 0 {
		return 0
	}
	return float64(s.BusyCycles()) / float64(ms*pu)
}

// Validate checks the schedule against the graph and timing model:
//
//   - every placement references a valid node and non-negative iteration;
//   - no instance is placed twice;
//   - placements on one processor do not overlap in time;
//   - every dependence with a source iteration >= 0 has its producer placed,
//     and the consumer starts no earlier than the producer's availability on
//     the consumer's processor;
//   - if complete is true, additionally: every instance (v, i) for
//     i < Iterations() is placed (the schedule covers whole iterations).
//
// It returns nil if the schedule is valid. Grain-G schedules validate
// against the chunk graph: placements are chunk instances and the
// dependences checked are the chunk-boundary ones.
//
// Instances are indexed in a Table, so a schedule whose placements span
// too many iterations for their number is refused (ErrSparse) before
// anything proportional to that span is allocated; with complete set it
// gets the count error instead, since a complete schedule fills its span.
func (s *Schedule) Validate(complete bool) error {
	g := s.EffectiveGraph()
	// The field checks and the duplicate check report the first failing
	// placement in order. Find the first with a bad field, so the table
	// is sized from the in-range placements before it.
	bad, maxIter := len(s.Placements), -1
	var badErr error
	for i, p := range s.Placements {
		if badErr = s.fieldError(i, g.N()); badErr != nil {
			bad = i
			break
		}
		maxIter = max(maxIter, p.Iter)
	}
	if err := checkSpan(g.N(), maxIter, len(s.Placements)); err != nil {
		if complete {
			return s.countError(g.N())
		}
		return err
	}
	idx := NewTable(g.N(), maxIter+1)
	for i, p := range s.Placements[:bad] {
		if prev := idx.Get(p.Node, p.Iter); prev >= 0 {
			return fmt.Errorf("plan: instance (%s, iter %d) placed twice (placements %d and %d)",
				g.Nodes[p.Node].Name, p.Iter, prev, i)
		}
		idx.Set(p.Node, p.Iter, i)
	}
	if badErr != nil {
		return badErr
	}
	// Processor overlap, in ByProc's order. A schedule naming processors
	// beyond its placement count sorts as one group by processor instead,
	// so nothing is sized by the processor numbers.
	groups := [][]int{nil}
	if s.procSpan() <= len(s.Placements) {
		groups = s.ByProc()
	} else {
		order := make([]int, len(s.Placements))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			pa, pb := &s.Placements[a], &s.Placements[b]
			if c := cmp.Compare(pa.Proc, pb.Proc); c != 0 {
				return c
			}
			return byStart(pa, pb)
		})
		groups[0] = order
	}
	for _, grp := range groups {
		for j := 1; j < len(grp); j++ {
			prev := s.Placements[grp[j-1]]
			cur := s.Placements[grp[j]]
			if prev.Proc == cur.Proc && prev.Start+g.Nodes[prev.Node].Latency > cur.Start {
				return fmt.Errorf("plan: processor %d overlap: (%s,%d)@%d and (%s,%d)@%d",
					cur.Proc, g.Nodes[prev.Node].Name, prev.Iter, prev.Start,
					g.Nodes[cur.Node].Name, cur.Iter, cur.Start)
			}
		}
	}
	// Dependences.
	for i, p := range s.Placements {
		for _, ei := range g.In(p.Node) {
			e := g.Edges[ei]
			srcIter := p.Iter - e.Distance
			if srcIter < 0 {
				continue
			}
			pi := idx.Get(e.From, srcIter)
			if pi < 0 {
				return fmt.Errorf("plan: placement %d (%s, iter %d) depends on unplaced (%s, iter %d)",
					i, g.Nodes[p.Node].Name, p.Iter, g.Nodes[e.From].Name, srcIter)
			}
			prod := s.Placements[pi]
			avail := s.Timing.Avail(prod, g.Nodes[prod.Node].Latency, e, p.Proc)
			if p.Start < avail {
				return fmt.Errorf("plan: (%s, iter %d)@%d on P%d starts before (%s, iter %d) is available (cycle %d)",
					g.Nodes[p.Node].Name, p.Iter, p.Start, p.Proc, g.Nodes[e.From].Name, srcIter, avail)
			}
		}
	}
	if complete && len(s.Placements) != s.Iterations()*g.N() {
		return s.countError(g.N())
	}
	return nil
}

// fieldError describes the first bad field of placement i of a schedule
// over an n-node graph: a node outside it, or a negative iteration,
// start or processor, or a processor past the declared count. It returns
// nil when every field is in range.
func (s *Schedule) fieldError(i, n int) error {
	p := s.Placements[i]
	switch {
	case p.Node < 0 || p.Node >= n:
		return fmt.Errorf("plan: placement %d references unknown node %d", i, p.Node)
	case p.Iter < 0:
		return fmt.Errorf("plan: placement %d has negative iteration", i)
	case p.Start < 0:
		return fmt.Errorf("plan: placement %d starts at negative cycle %d", i, p.Start)
	case p.Proc < 0:
		return fmt.Errorf("plan: placement %d on negative processor", i)
	case s.Processors > 0 && p.Proc >= s.Processors:
		return fmt.Errorf("plan: placement %d on processor %d, schedule declares %d", i, p.Proc, s.Processors)
	}
	return nil
}

// countError reports a placement count that does not cover whole
// iterations of an n-node graph.
func (s *Schedule) countError(n int) error {
	iters := s.Iterations()
	return fmt.Errorf("plan: %d placements for %d iterations of %d nodes (want %d)",
		len(s.Placements), iters, n, iters*n)
}

// Sequential returns the schedule that runs all N iterations of the whole
// graph on processor 0 in body order: the baseline "s" in the percentage
// parallelism metric. Its makespan is N * TotalLatency().
func Sequential(g *graph.Graph, timing Timing, n int) *Schedule {
	order := g.BodyOrder()
	s := &Schedule{Graph: g, Timing: timing, Processors: 1}
	t := 0
	for it := 0; it < n; it++ {
		for _, v := range order {
			s.Placements = append(s.Placements, Placement{Node: v, Iter: it, Proc: 0, Start: t})
			t += g.Nodes[v].Latency
		}
	}
	return s
}
