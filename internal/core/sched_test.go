package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mimdloop/internal/classify"
	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
)

// figure7 builds the paper's Figure 7(a) loop:
//
//	A: A[I] = A[I-1] + E[I-1]
//	B: B[I] = A[I]
//	C: C[I] = B[I]
//	D: D[I] = D[I-1] + C[I-1]
//	E: E[I] = D[I]
//
// All latencies 1; all nodes Cyclic.
func figure7(t testing.TB) *graph.Graph {
	b := graph.NewBuilder()
	a := b.AddNode("A", 1)
	bb := b.AddNode("B", 1)
	c := b.AddNode("C", 1)
	d := b.AddNode("D", 1)
	e := b.AddNode("E", 1)
	b.AddEdge(a, a, 1)
	b.AddEdge(e, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, c, 0)
	b.AddEdge(d, d, 1)
	b.AddEdge(c, d, 1)
	b.AddEdge(d, e, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("figure7: %v", err)
	}
	return g
}

func TestFigure7Pattern(t *testing.T) {
	g := figure7(t)
	res, err := CyclicSched(g, Options{Processors: 2, CommCost: 2})
	if err != nil {
		t.Fatalf("CyclicSched: %v", err)
	}
	p := res.Pattern
	if p == nil {
		t.Fatal("no pattern")
	}
	// Paper, Section 3: "in effect, each iteration is completed every
	// three cycles", giving percentage parallelism (5-3)/5 = 40%.
	if got := p.RatePerIteration(); got != 3 {
		t.Fatalf("rate = %v cycles/iteration, want 3 (pattern %v)", got, p)
	}
	if err := res.Greedy.Validate(false); err != nil {
		t.Fatalf("greedy prefix invalid: %v", err)
	}
}

func TestFigure7Expansion(t *testing.T) {
	g := figure7(t)
	res, err := CyclicSched(g, Options{Processors: 2, CommCost: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 10, 50} {
		full, err := res.Expand(n)
		if err != nil {
			t.Fatalf("Expand(%d): %v", n, err)
		}
		if full.Iterations() != n {
			t.Fatalf("Expand(%d) covers %d iterations", n, full.Iterations())
		}
	}
	// Asymptotics: makespan grows ~3 cycles per extra iteration.
	s50, err := res.Expand(50)
	if err != nil {
		t.Fatal(err)
	}
	s100, err := res.Expand(100)
	if err != nil {
		t.Fatal(err)
	}
	delta := s100.Makespan() - s50.Makespan()
	if delta != 150 {
		t.Fatalf("makespan delta over 50 iterations = %d, want 150 (3/iter)", delta)
	}
}

func TestFigure7GreedyMatchesExpansionRate(t *testing.T) {
	g := figure7(t)
	res, err := CyclicSched(g, Options{Processors: 2, CommCost: 2})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := res.Expand(60)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := GreedyN(g, Options{Processors: 2, CommCost: 2}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Makespan() != greedy.Makespan() {
		t.Fatalf("expanded makespan %d != greedy makespan %d", exp.Makespan(), greedy.Makespan())
	}
}

func TestZeroCommPerfectPipelining(t *testing.T) {
	// With k=0 the algorithm degenerates to Perfect Pipelining: the Fig. 7
	// loop's rate is bounded by its critical cycle, 2 cycles/iteration
	// (A->A is 1, but C->D->...: cycle C? A(1)/1 = 1... the binding cycle
	// is A[i] = A[i-1]+E[i-1] with E fed by D: longest cycle D->E->A->B->C
	// ->D spans 5 latency over 2 iterations = 2.5 -> ceil rate 2.5).
	g := figure7(t)
	res, err := CyclicSched(g, Options{Processors: 5, CommCost: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(5) / 2 // cycle D->E->A->B->C->D: 5 latency, distance 2
	if got := res.Pattern.RatePerIteration(); got != want {
		t.Fatalf("zero-comm rate = %v, want %v", got, want)
	}
	// Lower bound from graph theory (integer ceiling).
	if cpi := g.CriticalPathPerIteration(); float64(cpi) > res.Pattern.RatePerIteration()+0.5 {
		t.Fatalf("rate %v beats critical-path bound %d", res.Pattern.RatePerIteration(), cpi)
	}
}

func TestSelfLoopSingleNode(t *testing.T) {
	b := graph.NewBuilder()
	x := b.AddNode("X", 2)
	b.AddEdge(x, x, 1)
	g := b.MustBuild()
	res, err := CyclicSched(g, Options{Processors: 3, CommCost: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A self-dependent node can never overlap itself: 2 cycles/iteration,
	// all on one processor (moving costs communication for no gain).
	if got := res.Pattern.RatePerIteration(); got != 2 {
		t.Fatalf("rate = %v, want 2", got)
	}
	procs := map[int]bool{}
	for _, pl := range res.Greedy.Placements {
		procs[pl.Proc] = true
	}
	if len(procs) != 1 {
		t.Fatalf("self-loop spread over %d processors, want 1", len(procs))
	}
}

func TestCommCostKeepsChainLocal(t *testing.T) {
	// Chain A->B with lcd B->A: with k=3, hopping processors costs more
	// than waiting; everything should stay on processor 0 at 2 cycles/iter.
	b := graph.NewBuilder()
	a := b.AddNode("A", 1)
	bb := b.AddNode("B", 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, a, 1)
	g := b.MustBuild()
	res, err := CyclicSched(g, Options{Processors: 4, CommCost: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Pattern.RatePerIteration(); got != 2 {
		t.Fatalf("rate = %v, want 2", got)
	}
	for _, pl := range res.Greedy.Placements {
		if pl.Proc != 0 {
			t.Fatalf("placement %+v left processor 0 despite comm cost", pl)
		}
	}
}

func TestTwoIndependentCyclesUseTwoProcessors(t *testing.T) {
	// Two disjoint self-loops should run on different processors and give
	// a combined rate of 1 iteration per max(latency) cycles.
	b := graph.NewBuilder()
	x := b.AddNode("X", 2)
	y := b.AddNode("Y", 2)
	b.AddEdge(x, x, 1)
	b.AddEdge(y, y, 1)
	g := b.MustBuild()
	res, err := CyclicSched(g, Options{Processors: 2, CommCost: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Pattern.RatePerIteration(); got != 2 {
		t.Fatalf("rate = %v, want 2", got)
	}
	procs := map[int]map[int]bool{}
	for _, pl := range res.Greedy.Placements {
		if procs[pl.Node] == nil {
			procs[pl.Node] = map[int]bool{}
		}
		procs[pl.Node][pl.Proc] = true
	}
	if len(procs[0]) != 1 || len(procs[1]) != 1 {
		t.Fatalf("nodes wander across processors: %v", procs)
	}
}

func TestErrNoPatternBudget(t *testing.T) {
	g := figure7(t)
	_, err := CyclicSched(g, Options{Processors: 2, CommCost: 2, MaxIterations: 1})
	if err == nil || !errors.Is(err, ErrNoPattern) {
		t.Fatalf("err = %v, want ErrNoPattern", err)
	}
}

func TestOptionValidation(t *testing.T) {
	g := figure7(t)
	if _, err := CyclicSched(g, Options{Processors: -1}); err == nil {
		t.Fatal("negative processors accepted")
	}
	if _, err := CyclicSched(g, Options{CommCost: -1}); err == nil {
		t.Fatal("negative comm cost accepted")
	}
	res, err := CyclicSched(g, Options{Processors: 2, CommCost: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Expand(0); err == nil {
		t.Fatal("Expand(0) accepted")
	}
	if _, err := GreedyN(g, Options{Processors: 2, CommCost: 2}, 0); err == nil {
		t.Fatal("GreedyN(0) accepted")
	}
}

func TestAppendOnlyAblationNoWorseThanSerial(t *testing.T) {
	g := figure7(t)
	res, err := CyclicSched(g, Options{Processors: 2, CommCost: 2, AppendOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern.RatePerIteration() > 5 {
		t.Fatalf("append-only rate %v worse than sequential", res.Pattern.RatePerIteration())
	}
}

func TestFIFOOrderAlsoFindsPattern(t *testing.T) {
	g := figure7(t)
	res, err := CyclicSched(g, Options{Processors: 2, CommCost: 2, FIFOOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern == nil {
		t.Fatal("FIFO order found no pattern")
	}
	if _, err := res.Expand(20); err != nil {
		t.Fatalf("FIFO expansion: %v", err)
	}
}

// randomCyclicGraph generates a random graph and extracts its Cyclic
// subset, as the paper's experiments do; returns nil if the subset is
// empty.
func randomCyclicGraph(rng *rand.Rand, n, sd, lcd int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode("n", 1+rng.Intn(3))
	}
	for i := 0; i < sd; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		b.AddEdge(u, v, 0)
	}
	for i := 0; i < lcd; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), 1)
	}
	g := b.MustBuild()
	cls := classify.Partition(g)
	if cls.IsDOALL() {
		return nil
	}
	sub, _, err := classify.CyclicSubgraph(g, cls)
	if err != nil {
		return nil
	}
	return sub
}

func TestPropertyPatternsEmergeAndValidate(t *testing.T) {
	// Every random Cyclic subset — scheduled per connected component, as
	// Section 2.1 prescribes — must yield a verified pattern whose
	// expansion is a valid complete schedule.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := randomCyclicGraph(rng, n, rng.Intn(2*n), 1+rng.Intn(n))
		if g == nil {
			return true
		}
		opts := Options{Processors: 4, CommCost: rng.Intn(4)}
		multi, err := CyclicSchedAll(g, opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		exp, err := multi.Expand(25)
		if err != nil {
			t.Logf("seed %d expand: %v", seed, err)
			return false
		}
		return exp.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// trackingCase draws the loop and options TestPropertyExpansionTracksGreedy
// checks for seed, or a nil graph when the draw is not one connected
// Cyclic subset.
func trackingCase(seed int64) (*graph.Graph, Options) {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(8)
	g := randomCyclicGraph(rng, n, rng.Intn(n), 1+rng.Intn(n))
	if g == nil || len(g.ConnectedComponents()) != 1 {
		return nil, Options{}
	}
	return g, Options{Processors: 3, CommCost: 1 + rng.Intn(3)}
}

func TestPropertyExpansionTracksGreedy(t *testing.T) {
	// For connected graphs, the pattern-replicated schedule is the greedy
	// schedule continued: makespans may differ only by boundary effects at
	// the final iterations (greedy of a finite horizon can place tail
	// instances differently), bounded by one pattern period plus a window.
	// That is Lemma 7, and it covers detected patterns. A pattern the
	// modulo fallback forced (force.go) is periodic from iteration 0 and
	// need not track the greedy; TestForcedPatternIsPeriodic pins the
	// seeds that draw one.
	f := func(seed int64) bool {
		g, opts := trackingCase(seed)
		if g == nil {
			return true
		}
		res, err := CyclicSched(g, opts)
		if err != nil {
			return false
		}
		iters := 30
		exp, err := res.Expand(iters)
		if err != nil {
			return false
		}
		if res.Pattern.Forced {
			return true
		}
		greedy, err := GreedyN(g, opts, iters)
		if err != nil {
			return false
		}
		slack := res.Pattern.Cycles() + res.Opts.WindowHeight
		diff := exp.Makespan() - greedy.Makespan()
		if diff < 0 {
			diff = -diff
		}
		if diff > slack {
			t.Logf("seed %d: expansion %d vs greedy %d (slack %d)", seed, exp.Makespan(), greedy.Makespan(), slack)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestForcedPatternIsPeriodic pins the seeds of the property test above
// whose pattern the modulo fallback forces: -7918669681467895494, which
// failed the tracking check about once in 200 runs of the test while it
// also covered forced patterns, and six more found by drawing 300,000
// seeds (32 of them forced, none of them tracking the greedy; no
// detected pattern failed). Each must get what forcePattern builds: a
// valid expansion, periodic from iteration 0, where iteration i is
// iteration 0 shifted by i·T on the same processors. The log shows how
// far each falls behind the greedy schedule of the same loop.
func TestForcedPatternIsPeriodic(t *testing.T) {
	const iters = 30
	for _, seed := range []int64{
		-7918669681467895494, 3586708706478844522, -1757976571033408222, 353497650793747587,
		-3588364769539193810, 5279119526380491295, 2183990824989056333,
	} {
		g, opts := trackingCase(seed)
		if g == nil {
			t.Fatalf("seed %d no longer draws a connected Cyclic subset", seed)
		}
		res, err := CyclicSched(g, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exp, err := res.Expand(iters)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := res.Pattern
		if !p.Forced {
			t.Fatalf("seed %d: pattern %v was detected, not forced", seed, p)
		}
		if err := exp.Validate(true); err != nil {
			t.Fatalf("seed %d: forced expansion invalid: %v", seed, err)
		}
		if p.IterShift != 1 || len(exp.Placements) != iters*g.N() {
			t.Fatalf("seed %d: shift %d and %d placements, want 1 and %d", seed, p.IterShift, len(exp.Placements), iters*g.N())
		}
		first := make(map[int]plan.Placement, g.N())
		for _, pl := range exp.Placements {
			if pl.Iter == 0 {
				first[pl.Node] = pl
			}
		}
		period := p.Cycles()
		for _, pl := range exp.Placements {
			f0, ok := first[pl.Node]
			if !ok || pl.Proc != f0.Proc || pl.Start != f0.Start+pl.Iter*period {
				t.Fatalf("seed %d: (%d, iter %d) on PE%d at %d is not iteration 0 shifted by %d·%d",
					seed, pl.Node, pl.Iter, pl.Proc, pl.Start, pl.Iter, period)
			}
		}
		greedy, err := GreedyN(g, opts, iters)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: forced period %d, expansion %d vs greedy %d cycles (%.2f×)",
			seed, period, exp.Makespan(), greedy.Makespan(), float64(exp.Makespan())/float64(greedy.Makespan()))
	}
}

func TestMultiComponentScheduling(t *testing.T) {
	// Two self-loops with different latencies drift apart forever; a
	// global pattern never forms, but per-component scheduling handles it.
	b := graph.NewBuilder()
	x := b.AddNode("X", 2)
	y := b.AddNode("Y", 3)
	b.AddEdge(x, x, 1)
	b.AddEdge(y, y, 1)
	g := b.MustBuild()
	multi, err := CyclicSchedAll(g, Options{Processors: 2, CommCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(multi.Components))
	}
	if got := multi.RatePerIteration(); got != 3 {
		t.Fatalf("rate = %v, want 3 (slowest component)", got)
	}
	if multi.SinglePattern() != nil {
		t.Fatal("SinglePattern non-nil for two components")
	}
	exp, err := multi.Expand(10)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Makespan() != 30 {
		t.Fatalf("makespan = %d, want 30", exp.Makespan())
	}
}

func TestTimelineFit(t *testing.T) {
	var tl timeline
	if got := tl.fit(3, 2, false); got != 3 {
		t.Fatalf("empty fit = %d, want 3", got)
	}
	tl.insert(3, 2) // [3,5)
	tl.insert(7, 1) // [7,8)
	if got := tl.fit(0, 3, false); got != 0 {
		t.Fatalf("fit before = %d, want 0", got)
	}
	if got := tl.fit(0, 4, false); got != 8 {
		t.Fatalf("fit 4 wide = %d, want 8", got)
	}
	if got := tl.fit(4, 2, false); got != 5 {
		t.Fatalf("fit gap = %d, want 5", got)
	}
	if got := tl.fit(4, 3, false); got != 8 {
		t.Fatalf("fit too wide for gap = %d, want 8", got)
	}
	if got := tl.fit(0, 1, true); got != 8 {
		t.Fatalf("append-only fit = %d, want 8", got)
	}
	if got := tl.end(); got != 8 {
		t.Fatalf("end = %d, want 8", got)
	}
	// Merging.
	tl.insert(5, 2) // fills [5,7): [3,8) now contiguous
	if len(tl.ivs) != 1 || tl.ivs[0].s != 3 || tl.ivs[0].e != 8 {
		t.Fatalf("merge failed: %+v", tl.ivs)
	}
}
