package pipeline

import (
	"fmt"
	"sync"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/exec"
	"mimdloop/internal/graph"
	"mimdloop/internal/workload"
)

// memoModel is a nonzero cost model, so csim rescales instead of passing
// the sim stats through.
var memoModel = exec.CostModel{ComputeNsPerCycle: 40, CommNsPerMessage: 900, IterOverheadNs: 300, SeqNsPerCycle: 30}

func streamChain(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := workload.Streams(1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMemoReplayIsExact: for sim and csim, with and without fluctuation,
// at grain 0 and 4, a replayed evaluation under every objective returns
// the score and stats a fresh evaluation of a freshly built twin plan
// returns.
func TestMemoReplayIsExact(t *testing.T) {
	g := streamChain(t)
	objectives := []EvalObjective{EvalMean, EvalWorst, EvalP95}
	for _, be := range []exec.Backend{exec.Sim{}, exec.Calibrated{Model: memoModel}} {
		for _, fluct := range []int{0, 3} {
			for _, grain := range []int{0, 4} {
				t.Run(fmt.Sprintf("%s/fluct%d/grain%d", be.Name(), fluct, grain), func(t *testing.T) {
					opts := core.Options{Processors: 2, CommCost: 2, Grain: grain}
					p := New(Config{})
					plan, _, err := p.Schedule(g, opts, 48)
					if err != nil {
						t.Fatal(err)
					}
					ev := func(o EvalObjective) *MeasuredEvaluator {
						return &MeasuredEvaluator{Trials: 5, Fluct: fluct, Seed: 7, Backend: be, Objective: o}
					}
					if _, err := p.Evaluate(ev(EvalMean), plan); err != nil {
						t.Fatal(err)
					}
					twins := New(Config{DisableCache: true})
					for i, o := range objectives {
						got, err := p.Evaluate(ev(o), plan)
						if err != nil {
							t.Fatal(err)
						}
						if st := p.Stats().Evals; st.Replayed != uint64(i+1) {
							t.Fatalf("objective %s: %d replays, want %d", o, st.Replayed, i+1)
						}
						twin, _, err := twins.Schedule(g, opts, 48)
						if err != nil {
							t.Fatal(err)
						}
						if twin == plan {
							t.Fatal("the twin is the memoized plan")
						}
						want, err := twins.Evaluate(ev(o), twin)
						if err != nil {
							t.Fatal(err)
						}
						if got.Rate != want.Rate || got.Procs != want.Procs || *got.Measured != *want.Measured {
							t.Fatalf("objective %s: replay %+v %+v, fresh %+v %+v", o, got, *got.Measured, want, *want.Measured)
						}
					}
				})
			}
		}
	}
}

// TestGortNeverReplays: the wall-clock backend is not deterministic, so
// every evaluation runs its trials and the plan gets no memo.
func TestGortNeverReplays(t *testing.T) {
	p := New(Config{})
	plan, _, err := p.Schedule(workload.Figure7().Graph, fig7Opts, 20)
	if err != nil {
		t.Fatal(err)
	}
	ev := &MeasuredEvaluator{Trials: 2, Backend: exec.Goroutine{}}
	for i := 0; i < 2; i++ {
		if _, err := p.Evaluate(ev, plan); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats().Evals; st.Measured != 2 || st.Replayed != 0 || st.Trials != 4 {
		t.Fatalf("two gort evaluations of 2 trials: %+v", st)
	}
	if plan.memo.Load() != nil {
		t.Fatal("a gort-only plan allocated an evaluation memo")
	}
}

// TestMemoIsBounded: a thousand seeds on one plan leave at most the fixed
// number of memo slots, the latest seeds replay, and the plan's store
// weight does not change from before the first evaluation to after the
// last.
func TestMemoIsBounded(t *testing.T) {
	p := New(Config{})
	plan, _, err := p.Schedule(workload.Figure7().Graph, fig7Opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	w, bytes := planBytes(plan), p.Store().Bytes()
	const seeds = 1000
	for s := int64(0); s < seeds; s++ {
		if _, err := p.Evaluate(&MeasuredEvaluator{Trials: 1, Fluct: 3, Seed: s}, plan); err != nil {
			t.Fatal(err)
		}
	}
	m := plan.memo.Load()
	if m == nil {
		t.Fatal("no memo after measured evaluations")
	}
	filled := 0
	for _, k := range m.keys {
		if k.backend != nil {
			filled++
		}
	}
	if filled > evalMemoSlots {
		t.Fatalf("%d memo entries, over the %d slots", filled, evalMemoSlots)
	}
	if got := planBytes(plan); got != w {
		t.Fatalf("plan weight %d after %d evaluations, was %d", got, seeds, w)
	}
	if got := p.Store().Bytes(); got != bytes {
		t.Fatalf("store bytes %d after %d evaluations, was %d", got, seeds, bytes)
	}
	if st := p.Stats().Evals; st.Replayed != 0 || st.Trials != seeds {
		t.Fatalf("distinct seeds replayed: %+v", st)
	}
	for s := int64(seeds - evalMemoSlots); s < seeds; s++ {
		if _, err := p.Evaluate(&MeasuredEvaluator{Trials: 1, Fluct: 3, Seed: s}, plan); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats().Evals; st.Replayed != evalMemoSlots {
		t.Fatalf("the last %d seeds did not all replay: %+v", evalMemoSlots, st)
	}
}

// TestMemoMissesOnNewModel: the csim cost model is part of the key, so a
// refitted model runs the trials again, and the old model still replays.
func TestMemoMissesOnNewModel(t *testing.T) {
	p := New(Config{})
	plan, _, err := p.Schedule(workload.Figure7().Graph, fig7Opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	refit := memoModel
	refit.CommNsPerMessage *= 2
	var scores []Score
	for _, m := range []exec.CostModel{memoModel, refit, memoModel} {
		s, err := p.Evaluate(&MeasuredEvaluator{Trials: 3, Fluct: 3, Seed: 1, Backend: exec.Calibrated{Model: m}}, plan)
		if err != nil {
			t.Fatal(err)
		}
		scores = append(scores, s)
	}
	if st := p.Stats().Evals; st.Replayed != 1 || st.Trials != 6 {
		t.Fatalf("model A, model B, model A: %+v, want the second A replayed and 6 trials run", st)
	}
	if scores[1].Rate == scores[0].Rate {
		t.Fatalf("the refitted model scored the plan the same: %v", scores[1].Rate)
	}
	if scores[2].Rate != scores[0].Rate || *scores[2].Measured != *scores[0].Measured {
		t.Fatalf("replay under the first model differs: %+v vs %+v", scores[2], scores[0])
	}
}

// TestMemoConcurrentSweeps: four goroutines sweeping one grid at once
// share its plans and memos, and every sweep returns what a serial sweep
// on a fresh pipeline returns.
func TestMemoConcurrentSweeps(t *testing.T) {
	g := workload.Figure7().Graph
	points := Grid([]int{2, 3, 4}, []int{1, 2})
	evaluator := func() Evaluator {
		return &MeasuredEvaluator{Trials: 3, Fluct: 3, Seed: 5, Backend: exec.Calibrated{Model: memoModel}}
	}
	want := New(Config{}).Sweep(g, points, SweepOptions{Iterations: 60, Workers: 1, Evaluator: evaluator()})
	p := New(Config{})
	const sweeps = 4
	got := make([][]Result, sweeps)
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = p.Sweep(g, points, SweepOptions{Iterations: 60, Workers: 2, Evaluator: evaluator()})
		}(i)
	}
	wg.Wait()
	for i, res := range got {
		for j, r := range res {
			w := want[j]
			if r.Err != nil || w.Err != nil {
				t.Fatalf("sweep %d point %+v: %v / %v", i, r.Point, r.Err, w.Err)
			}
			if r.Score.Rate != w.Score.Rate || *r.Score.Measured != *w.Score.Measured {
				t.Fatalf("sweep %d point %+v: %+v, serial %+v", i, r.Point, *r.Score.Measured, *w.Score.Measured)
			}
		}
	}
	if st := p.Stats().Evals; st.Measured != sweeps*uint64(len(points)) || st.Replayed == 0 {
		t.Fatalf("concurrent sweeps: %+v", st)
	}
}

// TestReplayedEvaluateAllocs pins what a replayed evaluation costs: the
// stats it returns, and no trial.
func TestReplayedEvaluateAllocs(t *testing.T) {
	p := New(Config{})
	plan, _, err := p.Schedule(workload.Figure7().Graph, fig7Opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	ev := &MeasuredEvaluator{Trials: 5, Fluct: 3, Seed: 1, Backend: exec.Calibrated{Model: memoModel}}
	if _, err := p.Evaluate(ev, plan); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Evaluate(ev, plan); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1 // the returned *MeasuredStats
	t.Logf("replayed Pipeline.Evaluate: %.1f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("replayed Pipeline.Evaluate allocates %.1f per call, over the budget of %d", allocs, budget)
	}
	if st := p.Stats().Evals; st.Trials != 5 {
		t.Fatalf("replays ran trials: %+v", st)
	}
}
