package core

import (
	"errors"
	"fmt"

	"mimdloop/internal/classify"
	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
)

// LoopSchedule is the complete result of scheduling a loop for n
// iterations: classification, the Cyclic pattern(s), and the composed full
// schedule over Cyclic + Flow-in + Flow-out processors.
type LoopSchedule struct {
	Graph *graph.Graph
	Class *classify.Result
	Opts  Options

	// Multi holds the per-component Cyclic-sched results over the induced
	// Cyclic subgraph (node IDs renumbered; CyclicMap maps them back). Nil
	// for DOALL loops and for the greedy fallback.
	Multi     *MultiResult
	CyclicMap []int

	// Full is the composed schedule for Iterations iterations, in original
	// node IDs.
	Full       *plan.Schedule
	Iterations int

	// Processor accounting.
	CyclicProcs  int
	FlowInProcs  int
	FlowOutProcs int
	// Folded reports that the Section 3 heuristic placed the non-Cyclic
	// nodes into idle slots of the Cyclic processors.
	Folded bool
	// GreedyFallback reports that no pattern was verified and the whole
	// loop was scheduled by bounded greedy instead.
	GreedyFallback bool
}

// Pattern returns the steady-state pattern when the Cyclic subset is a
// single connected component, else nil.
func (ls *LoopSchedule) Pattern() *Pattern {
	if ls.Multi == nil {
		return nil
	}
	return ls.Multi.SinglePattern()
}

// RatePerIteration returns the steady-state cycles per iteration of the
// composed schedule: the pattern rate when patterns exist, otherwise the
// measured average over the scheduled iterations. For grain-G schedules
// the pattern rate is per chunk and is divided by G, so rates stay
// comparable across grains (the makespan branch already divides by the
// real iteration count).
func (ls *LoopSchedule) RatePerIteration() float64 {
	if ls.Multi != nil {
		r := ls.Multi.RatePerIteration()
		if g := ls.Opts.Grain; g > 1 {
			r /= float64(g)
		}
		return r
	}
	if ls.Iterations == 0 {
		return 0
	}
	return float64(ls.Full.Makespan()) / float64(ls.Iterations)
}

// TotalProcs returns the number of processors the composed schedule uses.
func (ls *LoopSchedule) TotalProcs() int {
	if ls.Full == nil {
		return 0
	}
	return ls.Full.ProcsUsed()
}

// ScheduleLoop runs the paper's full pipeline (Figure 6) on g for n
// iterations:
//
//  1. classify nodes into Flow-in / Cyclic / Flow-out;
//  2. schedule the Cyclic subset with Cyclic-sched — one run per
//     weakly-connected component, per Section 2.1 — and expand the verified
//     patterns to n iterations;
//  3. schedule the Flow-in subset on ceil(L*d/T) extra processors,
//     round-robin by iteration, then delay the Cyclic schedule by the
//     minimal constant offset that makes every Flow-in value arrive in
//     time (the paper's "schedule Flow-in so as not to delay the Cyclic
//     subset", made explicit);
//  4. schedule the Flow-out subset symmetrically on its own processors.
//
// DOALL loops (no Cyclic nodes) and loops where no pattern is verified
// within the budget are scheduled by bounded greedy over the whole graph.
func ScheduleLoop(g *graph.Graph, opts Options, n int) (*LoopSchedule, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: schedule %d iterations", n)
	}
	if opts.Grain > 1 {
		return scheduleChunked(g, opts, n)
	}
	class := classify.Partition(g)
	ls := &LoopSchedule{Graph: g, Class: class, Opts: opts, Iterations: n}

	if class.IsDOALL() {
		full, err := GreedyN(g, opts, n)
		if err != nil {
			return nil, err
		}
		ls.Full = full
		ls.CyclicProcs = full.Processors
		return ls, nil
	}

	sub, back, err := classify.CyclicSubgraph(g, class)
	if err != nil {
		return nil, err
	}
	multi, err := CyclicSchedAll(sub, opts)
	if err != nil {
		if errors.Is(err, ErrNoPattern) {
			full, gerr := GreedyN(g, opts, n)
			if gerr != nil {
				return nil, fmt.Errorf("core: %v; greedy fallback also failed: %w", err, gerr)
			}
			ls.Full = full
			ls.CyclicProcs = full.Processors
			ls.GreedyFallback = true
			return ls, nil
		}
		return nil, err
	}
	ls.Multi = multi
	ls.CyclicMap = back

	cycPlan, err := multi.Expand(n)
	if err != nil {
		return nil, err
	}

	separate, sepErr := composeVariant(ls, cycPlan, n, false)
	if !opts.FoldNonCyclic {
		if sepErr != nil {
			return nil, sepErr
		}
		ls.apply(separate)
		return ls, nil
	}
	folded, foldErr := composeVariant(ls, cycPlan, n, true)
	switch {
	case sepErr != nil && foldErr != nil:
		return nil, sepErr
	case sepErr != nil:
		ls.apply(folded)
	case foldErr != nil:
		ls.apply(separate)
	default:
		// Prefer the fold when it does not cost more than ~5% makespan
		// ("with only small amount of delay", Section 3).
		if folded.sched.Makespan()*20 <= separate.sched.Makespan()*21 {
			ls.apply(folded)
		} else {
			ls.apply(separate)
		}
	}
	return ls, nil
}

// scheduleChunked is the grain-G branch of ScheduleLoop: it runs the
// ordinary pipeline on the grain-G chunk graph (graph.Chunked) for
// ceil(n/G) chunk iterations, then re-anchors the result on the original
// graph — the returned schedule keeps Graph = g with chunk-space
// placements and Full.Grain = G, so every consumer that walks placements
// against node latencies or dependence edges does so through
// plan.Schedule.EffectiveGraph. Classification and the Cyclic pattern
// (Multi) remain in chunk space; they describe the schedule that
// actually ran.
func scheduleChunked(g *graph.Graph, opts Options, n int) (*LoopSchedule, error) {
	grain := opts.Grain
	cg, err := graph.Chunked(g, grain)
	if err != nil {
		return nil, err
	}
	inner := opts
	inner.Grain = 0
	// Chunk placement is locality-sticky: a chunk message carries a
	// G-value block, so bouncing a node's chunk stream between
	// processors for a cycle or two of earlier start is a bad trade the
	// myopic greedy rule would otherwise make constantly.
	inner.chunkLocality = true
	// The chunk graph's window/drift defaults derive from its own G-fold
	// latencies inside the recursive call.
	chunks := (n + grain - 1) / grain
	ils, err := ScheduleLoop(cg, inner, chunks)
	if err != nil {
		return nil, err
	}
	full := &plan.Schedule{
		Graph:      g,
		Grain:      grain,
		Timing:     ils.Full.Timing,
		Processors: ils.Full.Processors,
		Placements: ils.Full.Placements,
	}
	return &LoopSchedule{
		Graph:          g,
		Class:          ils.Class,
		Opts:           opts,
		Multi:          ils.Multi,
		CyclicMap:      ils.CyclicMap,
		Full:           full,
		Iterations:     n,
		CyclicProcs:    ils.CyclicProcs,
		FlowInProcs:    ils.FlowInProcs,
		FlowOutProcs:   ils.FlowOutProcs,
		Folded:         ils.Folded,
		GreedyFallback: ils.GreedyFallback,
	}, nil
}

// variant is one composed full schedule candidate.
type variant struct {
	sched        *plan.Schedule
	flowInProcs  int
	flowOutProcs int
	cyclicProcs  int
	folded       bool
}

func (ls *LoopSchedule) apply(v *variant) {
	ls.Full = v.sched
	ls.FlowInProcs = v.flowInProcs
	ls.FlowOutProcs = v.flowOutProcs
	ls.CyclicProcs = v.cyclicProcs
	ls.Folded = v.folded
}

// composeVariant builds the full schedule from the expanded Cyclic plan,
// either on dedicated Flow processors (fold=false, Figure 5) or folded into
// the Cyclic processors' idle slots (fold=true, Section 3 heuristic).
func composeVariant(ls *LoopSchedule, cycPlan *plan.Schedule, n int, fold bool) (*variant, error) {
	g := ls.Graph
	class := ls.Class
	back := ls.CyclicMap
	periodT, periodD := ls.Multi.slowestPeriod()

	cyclicProcs := usedProcs(cycPlan)
	lIn := flowSetLatency(g, class.FlowIn)
	lOut := flowSetLatency(g, class.FlowOut)
	pIn := flowProcessorCount(lIn, periodT, periodD)
	pOut := flowProcessorCount(lOut, periodT, periodD)

	totalProcs := cyclicProcs + pIn + pOut
	if fold {
		totalProcs = cyclicProcs
	}
	v := &variant{cyclicProcs: cyclicProcs, folded: fold}
	if !fold {
		v.flowInProcs = pIn
		v.flowOutProcs = pOut
	}

	var foldPick []int
	if fold {
		foldPick = make([]int, cyclicProcs)
		for i := range foldPick {
			foldPick[i] = i
		}
	}

	// The Flow-in placement and Cyclic delay interact when folding (both
	// live on the same processors), so iterate: place Flow-in against the
	// current Cyclic offset, compute the residual delay, shift, retry.
	shift := 0
	for attempt := 0; ; attempt++ {
		sched := &plan.Schedule{Graph: g, Timing: cycPlan.Timing, Processors: totalProcs, Placements: make([]plan.Placement, 0, n*g.N())}
		idx := plan.NewTable(g.N(), n) // instance -> placement index
		lines := make([]timeline, totalProcs)

		// Cyclic placements, mapped to original IDs, shifted.
		for _, pl := range cycPlan.Placements {
			orig := back[pl.Node]
			npl := plan.Placement{Node: orig, Iter: pl.Iter, Proc: pl.Proc, Start: pl.Start + shift}
			idx.Set(orig, pl.Iter, len(sched.Placements))
			sched.Placements = append(sched.Placements, npl)
			lines[npl.Proc].insert(npl.Start, g.Nodes[orig].Latency)
		}

		// Flow-in.
		if lIn > 0 {
			var err error
			if fold {
				err = placeFlowSet(sched, &idx, lines, class.FlowIn, n, 0, 0, foldPick)
			} else {
				err = placeFlowSet(sched, &idx, lines, class.FlowIn, n, cyclicProcs, pIn, nil)
			}
			if err != nil {
				return nil, err
			}
		}

		d := flowInDelay(sched, &idx, class)
		if d > 0 {
			shift += d
			if attempt >= 8 {
				return nil, fmt.Errorf("core: flow-in delay did not converge (last shift %d)", shift)
			}
			continue
		}

		// Flow-out.
		if lOut > 0 {
			var err error
			if fold {
				err = placeFlowSet(sched, &idx, lines, class.FlowOut, n, 0, 0, foldPick)
			} else {
				err = placeFlowSet(sched, &idx, lines, class.FlowOut, n, cyclicProcs+pIn, pOut, nil)
			}
			if err != nil {
				return nil, err
			}
		}

		if err := sched.Validate(true); err != nil {
			return nil, fmt.Errorf("core: composed schedule invalid: %w", err)
		}
		v.sched = sched
		return v, nil
	}
}

// usedProcs returns 1 + the highest processor index in the schedule.
func usedProcs(s *plan.Schedule) int {
	n := 0
	for _, p := range s.Placements {
		if p.Proc+1 > n {
			n = p.Proc + 1
		}
	}
	return n
}
