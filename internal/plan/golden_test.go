package plan_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
	"mimdloop/internal/program/progtest"
	"mimdloop/internal/workload"
)

// goldenDigest is the sha256 of goldenCorpus's schedules, programs and
// processor accounting, computed before instance lookups moved from hash
// maps to plan.Table. Scheduling or lowering that changes a single byte
// of any corpus plan changes it.
const goldenDigest = "7c19ad3026cca2371d82d79b7a60fe8a3ca9e3946a21e0f33a3c492a5453ab3d"

type namedGraph struct {
	name string
	g    *graph.Graph
}

// goldenGraphs returns the corpus graphs: the Table 1 suite, the paper's
// figures and kernels, further random Cyclic subsets, random whole loops
// that keep their Flow-in and Flow-out nodes, and the Streams and Braid
// families.
func goldenGraphs(t testing.TB) []namedGraph {
	t.Helper()
	var out []namedGraph
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedGraph{name, g})
	}
	suite, err := workload.Suite()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range suite {
		add(fmt.Sprintf("table1-%02d", i+1), g, nil)
	}
	add("fig1", workload.Figure1(), nil)
	add("fig3", workload.Figure3(), nil)
	add("fig7", workload.Figure7().Graph, nil)
	add("fig9", workload.Figure9(), nil)
	add("livermore18", workload.Livermore18().Graph, nil)
	add("elliptic", workload.Elliptic().Graph, nil)
	for seed := int64(26); seed <= 33; seed++ {
		g, err := workload.Random(workload.PaperSpec, seed)
		add(fmt.Sprintf("random-%d", seed), g, err)
	}
	small := workload.RandomSpec{Nodes: 12, Simple: 8, LoopCarry: 6, MaxLatency: 3, MinCyclic: 3}
	for seed := int64(1); seed <= 6; seed++ {
		g, err := workload.Random(small, seed)
		add(fmt.Sprintf("random-small-%d", seed), g, err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		add(fmt.Sprintf("mixed-%d", seed), mixedLoop(seed, true), nil)
	}
	add("doall", mixedLoop(9, false), nil)
	g, err := workload.Streams(3, 4, 2)
	add("streams", g, err)
	g, err = workload.Braid(6, 2, 1)
	add("braid", g, err)
	return out
}

// mixedLoop is a random whole loop body: distance-0 edges run forward in
// body order and, when carried is set, loop-carried edges reach back up
// to three iterations, so classification leaves Flow-in and Flow-out
// nodes around the Cyclic core and composition has work to do. Without
// carried edges the loop is DOALL.
func mixedLoop(seed int64, carried bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(7)
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("m%d", i), 1+rng.Intn(3))
	}
	for i := 0; i < n; i++ {
		u := rng.Intn(n - 1)
		b.AddEdge(u, u+1+rng.Intn(n-u-1), 0)
	}
	for i := 0; carried && i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if rng.Intn(3) == 0 {
			b.AddEdgeCost(u, v, 1+rng.Intn(3), 1+rng.Intn(4))
		} else {
			b.AddEdge(u, v, 1+rng.Intn(3))
		}
	}
	return b.MustBuild()
}

type goldenCase struct {
	name string
	g    *graph.Graph
	opts core.Options
	n    int
}

// goldenCorpus crosses every corpus graph with iteration counts from one
// to a hundred (333 for every third graph), grain 0 and 4, and fold off and on, rotating through machine
// shapes (processor budget, k, the ablation flags, and an iteration
// budget too small for a pattern) so each graph meets several.
func goldenCorpus(t testing.TB) []goldenCase {
	shapes := []core.Options{
		{CommCost: 2},
		{Processors: 2},
		{Processors: 3, CommCost: 3},
		{CommCost: 3, CommFromStart: true},
		{Processors: 2, CommCost: 2, FIFOOrder: true},
		{CommCost: 2, AppendOnly: true},
		{Processors: 5},
		{CommCost: 2, MaxIterations: 1},
	}
	var out []goldenCase
	for gi, ng := range goldenGraphs(t) {
		for ni, n := range []int{1, 7, 24, 100, 333} {
			if n == 333 && gi%3 != 0 {
				continue
			}
			for si := 0; si < 2 && (si == 0 || n < 100); si++ {
				shape := shapes[(gi+ni+3*si)%len(shapes)]
				for _, grain := range []int{0, 4} {
					for _, fold := range []bool{false, true} {
						opts := shape
						opts.Grain, opts.FoldNonCyclic = grain, fold
						out = append(out, goldenCase{
							name: fmt.Sprintf("%s/%+v/n%d", ng.name, opts, n),
							g:    ng.g, opts: opts, n: n,
						})
					}
				}
			}
		}
	}
	return out
}

// goldenPlan is the outcome of one corpus case: the schedule, its
// programs, and the error of whichever stage failed.
type goldenPlan struct {
	goldenCase
	ls       *core.LoopSchedule
	progs    []program.Program
	schedErr error
	lowerErr error
}

// golden holds the corpus outcomes, computed once for the tests below.
var golden struct {
	sync.Once
	plans []goldenPlan
}

func goldenPlans(t *testing.T) []goldenPlan {
	golden.Do(func() {
		for _, c := range goldenCorpus(t) {
			gp := goldenPlan{goldenCase: c}
			if gp.ls, gp.schedErr = core.ScheduleLoop(c.g, c.opts, c.n); gp.schedErr == nil {
				gp.progs, gp.lowerErr = program.Build(gp.ls.Full)
			}
			golden.plans = append(golden.plans, gp)
		}
	})
	if golden.plans == nil {
		t.Fatal("the golden corpus failed to build")
	}
	return golden.plans
}

// TestScheduleAndLowerDigest pins every byte core.ScheduleLoop and
// program.Build produce on the corpus — schedule JSON, program JSON,
// the processor accounting and any error — to goldenDigest.
func TestScheduleAndLowerDigest(t *testing.T) {
	h := sha256.New()
	var buf []byte
	for _, gp := range goldenPlans(t) {
		fmt.Fprintf(h, "%s\n", gp.name)
		if gp.schedErr != nil {
			fmt.Fprintf(h, "schedule error: %v\n", gp.schedErr)
			continue
		}
		if gp.lowerErr != nil {
			fmt.Fprintf(h, "lower error: %v\n", gp.lowerErr)
			continue
		}
		ls := gp.ls
		buf = ls.Full.AppendJSON(buf[:0])
		buf = progtest.AppendJSON(append(buf, '\n'), gp.progs)
		h.Write(buf)
		fmt.Fprintf(h, "\ncyclic %d flow-in %d flow-out %d folded %v fallback %v\n",
			ls.CyclicProcs, ls.FlowInProcs, ls.FlowOutProcs, ls.Folded, ls.GreedyFallback)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("corpus digest %s, pinned %s", got, goldenDigest)
	}
}

// TestGoldenRecordsRoundTrip takes every corpus plan through the
// durable plan record, which stores the schedule and derives the rest:
// the decoded plan has the built plan's programs, makespan, processor
// count, rate and pattern, and its schedule bytes, so no honest record
// fails the decoder's Validate(true) and iteration checks.
func TestGoldenRecordsRoundTrip(t *testing.T) {
	pipe := pipeline.New(pipeline.Config{DisableCache: true})
	for _, gp := range goldenPlans(t) {
		if gp.schedErr != nil || gp.lowerErr != nil {
			continue
		}
		p, _, err := pipe.Schedule(gp.g, gp.opts, gp.n)
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		rec, err := pipeline.EncodePlan(p)
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		_, got, err := pipeline.DecodePlan(rec)
		if err != nil {
			t.Fatalf("%s: an honest record is refused: %v", gp.name, err)
		}
		if !reflect.DeepEqual(got.Programs, p.Programs) || !reflect.DeepEqual(got.Programs, gp.progs) {
			t.Fatalf("%s: decoded programs differ", gp.name)
		}
		if got.Makespan() != p.Makespan() || got.Procs() != p.Procs() || got.Rate() != p.Rate() ||
			!reflect.DeepEqual(got.Pattern(), p.Pattern()) {
			t.Fatalf("%s: decoded summary %d/%d/%v/%+v, built %d/%d/%v/%+v", gp.name,
				got.Makespan(), got.Procs(), got.Rate(), got.Pattern(), p.Makespan(), p.Procs(), p.Rate(), p.Pattern())
		}
		want, _ := p.ScheduleJSON()
		if js, err := got.ScheduleJSON(); err != nil || !bytes.Equal(js, want) {
			t.Fatalf("%s: decoded schedule bytes differ", gp.name)
		}
	}
}

// TestBuildAndValidateMatchReference runs the reference map-based
// program.Build and Schedule.Validate on the corpus: the programs must be
// deeply equal, and Validate must agree on every composed schedule and
// on every component's greedy prefix (an incomplete schedule).
func TestBuildAndValidateMatchReference(t *testing.T) {
	for _, gp := range goldenPlans(t) {
		if gp.schedErr != nil {
			continue
		}
		want, werr := refBuild(gp.ls.Full)
		if fmt.Sprint(gp.lowerErr) != fmt.Sprint(werr) || !reflect.DeepEqual(gp.progs, want) {
			t.Fatalf("%s: Build differs from the reference (errors %v / %v)", gp.name, gp.lowerErr, werr)
		}
		sameVerdict(t, gp.name, gp.ls.Full, true)
		if gp.ls.Multi != nil {
			for ci, comp := range gp.ls.Multi.Components {
				sameVerdict(t, fmt.Sprintf("%s component %d greedy", gp.name, ci), comp.Result.Greedy, false)
			}
		}
	}
}

// sameVerdict fails unless Validate and the reference return the same
// error text (or both nil) for s.
func sameVerdict(t *testing.T, name string, s *plan.Schedule, complete bool) {
	t.Helper()
	got, want := s.Validate(complete), refValidate(s, complete)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Validate(%v) = %v, reference %v", name, complete, got, want)
	}
}
