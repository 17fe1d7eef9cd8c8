package mimdrt

import (
	"errors"
	"fmt"
	"math"

	"mimdloop/internal/graph"
	"mimdloop/internal/program"
)

// Runner executes one program set repeatedly, reusing its wiring, the
// per-processor goroutines and the link channels across passes. A timed
// trial harness (the exec package's goroutine backend) calls Pass once
// per trial and Check after it; the expensive setup — wiring, one
// goroutine per processor, one exactly-buffered channel per link —
// happens once in NewRunner, so repeated trials measure execution, not
// allocation and goroutine spawning.
//
// A Runner is single-client: Pass and Run must not be called
// concurrently with themselves or each other. Close releases the worker
// goroutines and is idempotent. A program set that wiring refuses gives
// a dead Runner: every pass returns the refusal. A processor fails a pass
// only when the semantics panics; its peers are released, the pass
// returns the failure, and the Runner is dead from then on.
type Runner struct {
	g     *graph.Graph
	sem   Semantics
	procs []proc
	links []chan message

	start []chan struct{}
	// done carries one outcome per processor per pass, in completion
	// order — collection must not assume processor order, because a
	// processor blocked on a failed peer only unblocks once the failure
	// has been observed and quit closed.
	done chan procOutcome
	quit chan struct{}

	dead   error
	closed bool

	// coverN is the iteration count Check last checked coverage for,
	// and coverErr its outcome.
	coverN   int
	coverErr error
}

type procOutcome struct {
	proc int
	err  error
}

// NewRunner wires the program set and parks one worker goroutine per
// processor, ready to execute the programs on demand.
func NewRunner(g *graph.Graph, progs []program.Program, sem Semantics) *Runner {
	return NewChunkedRunner(g, progs, sem, 0, 0)
}

// NewChunkedRunner is NewRunner for grain-chunked program sets: progs
// are in chunk space (per plan.Schedule with Grain = grain) over the
// original graph g, and iters is the real iteration count. Run returns
// values keyed by real iteration, comparable to Sequential. Grain <= 1
// is NewRunner.
func NewChunkedRunner(g *graph.Graph, progs []program.Program, sem Semantics, grain, iters int) *Runner {
	r := &Runner{g: g, sem: sem, coverN: -1}
	r.procs, r.links, r.dead = wire(g, progs, grain, iters)
	if r.dead != nil {
		return r
	}
	n := len(progs)
	r.start = make([]chan struct{}, n)
	r.done = make(chan procOutcome, n)
	r.quit = make(chan struct{})
	for p := 0; p < n; p++ {
		r.start[p] = make(chan struct{})
		go func(p int) {
			for {
				select {
				case <-r.quit:
					return
				case <-r.start[p]:
					r.done <- procOutcome{proc: p, err: r.exec(&r.procs[p])}
				}
			}
		}(p)
	}
	return r
}

// Pass executes one full pass of the programs on the parked workers. The
// values stay in the processors' slots, for Check and Run.
func (r *Runner) Pass() error {
	if r.closed {
		return errors.New("mimdrt: runner is closed")
	}
	if r.dead != nil {
		return r.dead
	}
	for p := range r.start {
		r.start[p] <- struct{}{}
	}
	var firstErr error
	for range r.start {
		out := <-r.done
		if out.err != nil && firstErr == nil {
			// Releasing quit immediately unblocks peers stalled on the
			// failed processor's messages, so the remaining outcomes
			// always arrive.
			firstErr = fmt.Errorf("mimdrt: PE%d: %w", out.proc, out.err)
			close(r.quit)
		}
	}
	if firstErr != nil {
		// The links may hold messages of the aborted pass.
		r.dead = fmt.Errorf("mimdrt: runner is dead after a failed run: %w", firstErr)
	}
	return firstErr
}

// Run executes one pass and returns every computed value keyed by
// instance — the same contract as the package-level Run, minus the
// per-call setup. A value computed on several processors appears once.
func (r *Runner) Run() (map[graph.InstanceID]float64, error) {
	if err := r.Pass(); err != nil {
		return nil, err
	}
	out := make(map[graph.InstanceID]float64)
	r.each(func(_, node, iter int, v float64) {
		out[graph.InstanceID{Node: node, Iter: iter}] = v
	})
	return out, nil
}

// Check compares the values of the last pass with want, the table
// SequentialTable returns for some n iterations: the programs must
// compute every instance of those iterations and none outside them, and
// every processor's value of an instance must equal want's to relative
// 1e-9. Coverage is a property of the programs alone, checked on the
// first call for each n.
func (r *Runner) Check(want []float64) error {
	if r.dead != nil {
		return r.dead
	}
	nodes := r.g.N()
	if len(want) != r.coverN {
		r.coverN, r.coverErr = len(want), r.coverage(len(want)/max(nodes, 1))
	}
	if r.coverErr != nil {
		return r.coverErr
	}
	var err error
	r.each(func(p, node, iter int, v float64) {
		if w := want[iter*nodes+node]; err == nil && math.Abs(v-w) > 1e-9*math.Max(1, math.Abs(w)) {
			err = fmt.Errorf("instance (%s, iter %d) = %v on PE%d, sequential %v", r.g.Nodes[node].Name, iter, v, p, w)
		}
	})
	return err
}

// coverage checks that the programs compute every instance of n
// iterations and none outside them.
func (r *Runner) coverage(n int) error {
	nodes := r.g.N()
	seen := make([]bool, n*nodes)
	var err error
	r.each(func(_, node, iter int, _ float64) {
		if iter >= n {
			if err == nil {
				err = fmt.Errorf("instance (%s, iter %d) computed past the sequential's %d iterations", r.g.Nodes[node].Name, iter, n)
			}
			return
		}
		seen[iter*nodes+node] = true
	})
	if err != nil {
		return err
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("instance (%s, iter %d) never computed", r.g.Nodes[i%nodes].Name, i/nodes)
		}
	}
	return nil
}

// each calls f with every value the last pass computed, processor by
// processor in program order.
func (r *Runner) each(f func(p, node, iter int, v float64)) {
	for p := range r.procs {
		w := &r.procs[p]
		for i := range w.ops {
			if o := &w.ops[i]; o.kind == opCompute {
				for k := 0; k < int(o.n); k++ {
					f(p, int(o.node), o.iter+k, w.vals[int(o.slot)+k])
				}
			}
		}
	}
}

// exec runs one processor's wired program once. A receive tries its link
// without blocking first and waits on it, or on quit, only when the link
// is empty.
func (r *Runner) exec(w *proc) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("semantics panicked: %v", v)
		}
	}()
	g, sem, vals := r.g, r.sem, w.vals
	for i := range w.ops {
		o := &w.ops[i]
		n, slot := int(o.n), int(o.slot)
		switch o.kind {
		case opCompute:
			node := int(o.node)
			in := g.In(node)
			args := w.args[:len(in)]
			opnd := w.opnd[o.off : o.off+n*len(in)]
			for k := 0; k < n; k++ {
				iter := o.iter + k
				for j, s := range opnd[k*len(in) : (k+1)*len(in)] {
					if s >= 0 {
						args[j] = vals[s]
					} else {
						args[j] = sem.Boundary(g.Edges[in[j]], iter)
					}
				}
				vals[slot+k] = sem.Eval(node, iter, args)
			}
		case opPut:
			if n == 1 {
				r.links[o.link] <- message{val: vals[slot]}
				continue
			}
			b := w.block[o.off : o.off+n]
			copy(b, vals[slot:slot+n])
			r.links[o.link] <- message{vals: b}
		case opTake:
			var m message
			select {
			case m = <-r.links[o.link]:
			default:
				select {
				case m = <-r.links[o.link]:
				case <-r.quit:
					return fmt.Errorf("recv of a %s value: runner closed while waiting on a failed peer", g.Nodes[o.node].Name)
				}
			}
			if n == 1 {
				vals[slot] = m.val
			} else {
				copy(vals[slot:slot+n], m.vals)
			}
		}
	}
	return nil
}

// Close releases the worker goroutines. It is idempotent and safe after
// a failed run (the failure already released them).
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.dead == nil {
		close(r.quit)
	}
}
