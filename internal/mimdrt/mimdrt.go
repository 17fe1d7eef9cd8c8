// Package mimdrt executes lowered loop programs on a real MIMD machine:
// one goroutine per simulated processor and one channel per directed
// processor pair that carries a message. It is the existence proof that
// the partitioned loops the scheduler emits actually run — and compute
// the same values as sequential execution — on asynchronous hardware,
// independent of any timing assumption made at compile time.
//
// A program set is wired once (see wire): every value a processor holds
// gets a slot in that processor's own value array, and every instruction
// is resolved to slots and links, so a pass indexes flat slices and never
// hashes an instance. The map results of Runner.Run and Sequential are
// built from those slots at the edge.
package mimdrt

import "mimdloop/internal/graph"

// Semantics supplies the meaning of nodes so programs can run over real
// data.
type Semantics interface {
	// Eval computes instance (node, iter) from its operand values, which
	// arrive in the order of the graph's incoming edge list for the node
	// (graph.Graph.In). Operands whose source iteration would be negative
	// are boundary values. args is valid only during the call.
	Eval(node, iter int, args []float64) float64
	// Boundary supplies the value read through edge e when the source
	// iteration iter - e.Distance is negative (loop-entry state).
	Boundary(e graph.Edge, iter int) float64
}

// Sequential interprets all n iterations in body order on one processor —
// the ground truth the parallel execution must match.
func Sequential(g *graph.Graph, sem Semantics, n int) map[graph.InstanceID]float64 {
	vals := SequentialTable(g, sem, n)
	out := make(map[graph.InstanceID]float64, len(vals))
	for i, v := range vals {
		out[graph.InstanceID{Node: i % g.N(), Iter: i / g.N()}] = v
	}
	return out
}

// SequentialTable is Sequential in dense form: the value of instance
// (node, iter) is at iter*g.N() + node, for iterations 0..n-1.
func SequentialTable(g *graph.Graph, sem Semantics, n int) []float64 {
	nodes, order := g.N(), g.BodyOrder()
	vals := make([]float64, max(n, 0)*nodes)
	args := make([]float64, maxInDegree(g))
	for iter := 0; iter < n; iter++ {
		for _, v := range order {
			in := g.In(v)
			for j, ei := range in {
				e := g.Edges[ei]
				if src := iter - e.Distance; src >= 0 {
					args[j] = vals[src*nodes+e.From]
				} else {
					args[j] = sem.Boundary(e, iter)
				}
			}
			vals[iter*nodes+v] = sem.Eval(v, iter, args[:len(in)])
		}
	}
	return vals
}

// maxInDegree returns the largest incoming edge count of g's nodes.
func maxInDegree(g *graph.Graph) int {
	d := 0
	for v := 0; v < g.N(); v++ {
		d = max(d, len(g.In(v)))
	}
	return d
}

// MixSemantics is a synthetic Semantics that makes every value depend
// sensitively on its node, iteration and operands — any misrouted or
// missing operand changes the result. Useful for verifying program
// correctness without a source-language front end.
type MixSemantics struct{}

// Eval mixes operands with node- and iteration-dependent coefficients.
func (MixSemantics) Eval(node, iter int, args []float64) float64 {
	v := 1.0 + float64(node)*1.31 + float64(iter)*0.73
	for i, a := range args {
		v += a * (0.5 + 0.01*float64(i))
	}
	// Keep magnitudes bounded so long loops stay finite.
	for v > 1e6 || v < -1e6 {
		v /= 1024
	}
	return v
}

// Boundary derives a loop-entry value from the edge identity.
func (MixSemantics) Boundary(e graph.Edge, iter int) float64 {
	return float64(e.From)*0.11 - float64(e.To)*0.07 + float64(iter)*0.005
}
