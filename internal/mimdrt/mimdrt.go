// Package mimdrt executes lowered loop programs on a real MIMD machine:
// one goroutine per simulated processor, one channel per directed processor
// pair, values tagged with their (node, iteration) identity and matched in
// a per-processor inbox. It is the existence proof that the partitioned
// loops the scheduler emits actually run — and compute the same values as
// sequential execution — on asynchronous hardware, independent of any
// timing assumption made at compile time.
package mimdrt

import (
	"fmt"

	"mimdloop/internal/graph"
	"mimdloop/internal/program"
)

// Semantics supplies the meaning of nodes so programs can run over real
// data.
type Semantics interface {
	// Eval computes instance (node, iter) from its operand values, which
	// arrive in the order of the graph's incoming edge list for the node
	// (graph.Graph.In). Operands whose source iteration would be negative
	// are boundary values.
	Eval(node, iter int, args []float64) float64
	// Boundary supplies the value read through edge e when the source
	// iteration iter - e.Distance is negative (loop-entry state).
	Boundary(e graph.Edge, iter int) float64
}

// message carries one tagged value between processors. Grain-chunked
// executions tag messages with the chunk index and ship the chunk's
// whole value block in vals (val is then unused); plain executions keep
// the single-float payload, untouched on the grain-1 fast path.
type message struct {
	node, iter int
	val        float64
	vals       []float64
}

// buildLinks allocates the channel matrix for one program set: a channel
// per directed pair, buffered to the exact number of messages the link
// carries in one run. Sends then never block, which both mirrors the
// paper's fully-overlapped communication and rules out buffer-pressure
// deadlocks by construction.
func buildLinks(progs []program.Program) [][]chan message {
	n := len(progs)
	linkCount := make(map[[2]int]int)
	for _, prog := range progs {
		for _, in := range prog.Instrs {
			if in.Kind == program.OpSend {
				linkCount[[2]int{prog.Proc, in.Peer}]++
			}
		}
	}
	chans := make([][]chan message, n)
	for i := range chans {
		chans[i] = make([]chan message, n)
		for j := range chans[i] {
			if i != j {
				cap := linkCount[[2]int{i, j}]
				if cap < 1 {
					cap = 1
				}
				chans[i][j] = make(chan message, cap)
			}
		}
	}
	return chans
}

// Run executes the programs concurrently and returns every computed value
// keyed by instance. It returns an error if any processor needs a value it
// never computed or received (an invalid program), closing down cleanly:
// a processor blocked on a failed peer is released. It is one pass of a
// Runner; for repeated executions of the same programs — a trial harness
// timing run after run — keep the Runner, which keeps the processor
// goroutines and link channels alive across runs.
func Run(g *graph.Graph, progs []program.Program, sem Semantics) (map[graph.InstanceID]float64, error) {
	r := NewRunner(g, progs, sem)
	defer r.Close()
	return r.Run()
}

// RunChunked executes a grain-chunked program set (instructions in chunk
// space, per plan.Schedule with Grain = grain) for a loop of iters real
// iterations, and returns every computed value keyed by REAL iteration —
// directly comparable to Sequential(g, sem, iters). The graph must be
// the original (un-chunked) dependence graph.
func RunChunked(g *graph.Graph, progs []program.Program, sem Semantics, grain, iters int) (map[graph.InstanceID]float64, error) {
	r := NewChunkedRunner(g, progs, sem, grain, iters)
	defer r.Close()
	return r.Run()
}

func runProc(
	g *graph.Graph,
	prog program.Program,
	sem Semantics,
	chans [][]chan message,
	self int,
	abort <-chan struct{},
) (map[graph.InstanceID]float64, error) {
	local := make(map[graph.InstanceID]float64) // everything known on this PE
	computed := make(map[graph.InstanceID]float64)
	for _, in := range prog.Instrs {
		switch in.Kind {
		case program.OpCompute:
			args := make([]float64, 0, len(g.In(in.Node)))
			for _, ei := range g.In(in.Node) {
				e := g.Edges[ei]
				srcIter := in.Iter - e.Distance
				if srcIter < 0 {
					args = append(args, sem.Boundary(e, in.Iter))
					continue
				}
				v, ok := local[graph.InstanceID{Node: e.From, Iter: srcIter}]
				if !ok {
					return nil, fmt.Errorf("compute (%s, iter %d): operand (%s, iter %d) not available locally",
						g.Nodes[in.Node].Name, in.Iter, g.Nodes[e.From].Name, srcIter)
				}
				args = append(args, v)
			}
			id := graph.InstanceID{Node: in.Node, Iter: in.Iter}
			v := sem.Eval(in.Node, in.Iter, args)
			local[id] = v
			computed[id] = v
		case program.OpSend:
			id := graph.InstanceID{Node: in.Node, Iter: in.Iter}
			v, ok := local[id]
			if !ok {
				return nil, fmt.Errorf("send of unknown value (%s, iter %d)", g.Nodes[in.Node].Name, in.Iter)
			}
			chans[self][in.Peer] <- message{node: in.Node, iter: in.Iter, val: v}
		case program.OpRecv:
			want := graph.InstanceID{Node: in.Node, Iter: in.Iter}
			if _, have := local[want]; have {
				break
			}
			// Drain the link until the wanted tag shows up, keeping
			// everything read (later receives may want it). The Runner's
			// quit channel releases a processor blocked on a peer that
			// died.
		drain:
			for {
				select {
				case m, ok := <-chans[in.Peer][self]:
					if !ok {
						return nil, fmt.Errorf("recv (%s, iter %d): link from PE%d closed",
							g.Nodes[in.Node].Name, in.Iter, in.Peer)
					}
					id := graph.InstanceID{Node: m.node, Iter: m.iter}
					local[id] = m.val
					if id == want {
						break drain
					}
				case <-abort:
					return nil, fmt.Errorf("recv (%s, iter %d): runner closed while waiting on PE%d",
						g.Nodes[in.Node].Name, in.Iter, in.Peer)
				}
			}
		}
	}
	return computed, nil
}

// runProcChunked executes one processor's chunk-space program under
// grain G: each COMPUTE expands to the chunk's real iterations (clamped
// to iters for the final partial chunk) evaluated in ascending order
// against the ORIGINAL graph's incoming-edge order — identical operand
// semantics to Sequential — and each SEND ships the chunk's value block
// as one message. Computed values are keyed by real iteration, so the
// caller's value cross-check against the sequential interpretation works
// unchanged; chunk arrival is tracked separately in chunk space.
func runProcChunked(
	g *graph.Graph,
	prog program.Program,
	sem Semantics,
	chans [][]chan message,
	self int,
	abort <-chan struct{},
	grain, iters int,
) (map[graph.InstanceID]float64, error) {
	local := make(map[graph.InstanceID]float64)    // real-iteration values known on this PE
	have := make(map[graph.InstanceID]bool)        // chunks computed here or fully received
	computed := make(map[graph.InstanceID]float64) // real-iteration values computed here
	span := func(chunk int) (int, int) {
		lo := chunk * grain
		hi := lo + grain
		if hi > iters {
			hi = iters
		}
		return lo, hi
	}
	for _, in := range prog.Instrs {
		switch in.Kind {
		case program.OpCompute:
			lo, hi := span(in.Iter)
			for i := lo; i < hi; i++ {
				args := make([]float64, 0, len(g.In(in.Node)))
				for _, ei := range g.In(in.Node) {
					e := g.Edges[ei]
					srcIter := i - e.Distance
					if srcIter < 0 {
						args = append(args, sem.Boundary(e, i))
						continue
					}
					v, ok := local[graph.InstanceID{Node: e.From, Iter: srcIter}]
					if !ok {
						return nil, fmt.Errorf("compute (%s, iter %d): operand (%s, iter %d) not available locally",
							g.Nodes[in.Node].Name, i, g.Nodes[e.From].Name, srcIter)
					}
					args = append(args, v)
				}
				id := graph.InstanceID{Node: in.Node, Iter: i}
				v := sem.Eval(in.Node, i, args)
				local[id] = v
				computed[id] = v
			}
			have[graph.InstanceID{Node: in.Node, Iter: in.Iter}] = true
		case program.OpSend:
			lo, hi := span(in.Iter)
			vals := make([]float64, hi-lo)
			for i := lo; i < hi; i++ {
				v, ok := local[graph.InstanceID{Node: in.Node, Iter: i}]
				if !ok {
					return nil, fmt.Errorf("send of unknown value (%s, iter %d)", g.Nodes[in.Node].Name, i)
				}
				vals[i-lo] = v
			}
			chans[self][in.Peer] <- message{node: in.Node, iter: in.Iter, vals: vals}
		case program.OpRecv:
			want := graph.InstanceID{Node: in.Node, Iter: in.Iter}
			if have[want] {
				break
			}
		drain:
			for {
				select {
				case m, ok := <-chans[in.Peer][self]:
					if !ok {
						return nil, fmt.Errorf("recv (%s, chunk %d): link from PE%d closed",
							g.Nodes[in.Node].Name, in.Iter, in.Peer)
					}
					lo := m.iter * grain
					for j, v := range m.vals {
						local[graph.InstanceID{Node: m.node, Iter: lo + j}] = v
					}
					id := graph.InstanceID{Node: m.node, Iter: m.iter}
					have[id] = true
					if id == want {
						break drain
					}
				case <-abort:
					return nil, fmt.Errorf("recv (%s, chunk %d): runner closed while waiting on PE%d",
						g.Nodes[in.Node].Name, in.Iter, in.Peer)
				}
			}
		}
	}
	return computed, nil
}

// Sequential interprets all n iterations in body order on one processor —
// the ground truth the parallel execution must match.
func Sequential(g *graph.Graph, sem Semantics, n int) map[graph.InstanceID]float64 {
	order := g.BodyOrder()
	vals := make(map[graph.InstanceID]float64, n*g.N())
	for iter := 0; iter < n; iter++ {
		for _, v := range order {
			args := make([]float64, 0, len(g.In(v)))
			for _, ei := range g.In(v) {
				e := g.Edges[ei]
				srcIter := iter - e.Distance
				if srcIter < 0 {
					args = append(args, sem.Boundary(e, iter))
					continue
				}
				args = append(args, vals[graph.InstanceID{Node: e.From, Iter: srcIter}])
			}
			vals[graph.InstanceID{Node: v, Iter: iter}] = sem.Eval(v, iter, args)
		}
	}
	return vals
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
