package pipeline

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"mimdloop/internal/exec"
	"mimdloop/internal/graph"
	"mimdloop/internal/machine"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

// TestStaticEvaluatorPinsScheduledRate pins the extraction: scoring
// through StaticEvaluator is byte-identical to reading the plan's
// scheduled rate and processor count directly, at every Figure-7 grid
// point.
func TestStaticEvaluatorPinsScheduledRate(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	for _, r := range p.Sweep(g, Grid([]int{1, 2, 3, 4}, []int{0, 1, 2, 3}), SweepOptions{}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Score.Rate != r.Plan.Rate() || r.Score.Procs != r.Plan.Procs() {
			t.Fatalf("point %+v: static score %+v != plan rate %v procs %d",
				r.Point, r.Score, r.Plan.Rate(), r.Plan.Procs())
		}
		if r.Score.Measured != nil {
			t.Fatalf("point %+v: static score carries measured stats", r.Point)
		}
		if r.Rate != r.Score.Rate {
			t.Fatalf("point %+v: Result.Rate %v != static score %v", r.Point, r.Rate, r.Score.Rate)
		}
	}
}

// TestMeasuredFluct0RanksLikeStatic is the property test of the issue:
// with no fluctuation and a single trial, the measured evaluator must
// rank every Figure-7 grid point identically to the static evaluator —
// AutoTune under every objective picks the same winner from the same
// grid, and per point the measured makespan never contradicts the static
// ordering that tuning relies on.
func TestMeasuredFluct0RanksLikeStatic(t *testing.T) {
	g := workload.Figure7().Graph
	procs := []int{1, 2, 3, 4, 5}
	costs := []int{0, 1, 2, 3, 4}
	for _, obj := range []Objective{ObjectiveMinRate, ObjectiveMinProcs, ObjectiveEfficiency} {
		static, err := New(Config{}).AutoTune(g, 100, TuneOptions{
			Processors: procs, CommCosts: costs, Objective: obj,
		})
		if err != nil {
			t.Fatalf("%v static: %v", obj, err)
		}
		measured, err := New(Config{}).AutoTune(g, 100, TuneOptions{
			Processors: procs, CommCosts: costs, Objective: obj,
			Evaluator: &MeasuredEvaluator{Trials: 1, Fluct: 0},
		})
		if err != nil {
			t.Fatalf("%v measured: %v", obj, err)
		}
		if static.Best.Point != measured.Best.Point {
			t.Errorf("%v: static winner %+v != fluct-free measured winner %+v",
				obj, static.Best.Point, measured.Best.Point)
		}
		if measured.Evaluator != "measured" || static.Evaluator != "static" {
			t.Errorf("evaluator echo: %q / %q", static.Evaluator, measured.Evaluator)
		}
		// Point by point, the fluctuation-free measured rate is bounded by
		// the static rate (the machine is self-timed: it can beat the
		// static schedule, never lose to it) and the measured block is
		// filled.
		for i, mr := range measured.Results {
			sr := static.Results[i]
			if mr.Err != nil || sr.Err != nil {
				t.Fatalf("point %+v: err %v / %v", mr.Point, mr.Err, sr.Err)
			}
			if mr.Score.Measured == nil || mr.Score.Measured.Trials != 1 {
				t.Fatalf("point %+v: measured stats missing: %+v", mr.Point, mr.Score)
			}
			if mr.SimMakespan != mr.Score.Measured.MakespanMin || mr.Score.Measured.MakespanMin != mr.Score.Measured.MakespanMax {
				t.Fatalf("point %+v: single fluct-free trial has spread: %+v", mr.Point, mr.Score.Measured)
			}
			if mr.SimMakespan > mr.Plan.Makespan() {
				t.Fatalf("point %+v: measured makespan %d beyond static %d",
					mr.Point, mr.SimMakespan, mr.Plan.Makespan())
			}
			if mr.Rate != sr.Rate {
				t.Fatalf("point %+v: static Rate drifted under measured evaluation: %v vs %v",
					mr.Point, mr.Rate, sr.Rate)
			}
		}
	}
}

// TestMeasuredWinnerBeatsStaticWinner is the acceptance criterion: under
// fluctuation (>= 5 seeded trials, fluct > 0), the measured-ranked
// winner's measured Sp must be at least the measured Sp of the
// static-ranked winner on the Figure-7 loop.
func TestMeasuredWinnerBeatsStaticWinner(t *testing.T) {
	g := workload.Figure7().Graph
	procs := []int{1, 2, 3, 4, 5}
	costs := []int{0, 1, 2, 3, 4}
	ev := &MeasuredEvaluator{Trials: 5, Fluct: 3, Seed: 1}

	pipe := New(Config{})
	static, err := pipe.AutoTune(g, 100, TuneOptions{Processors: procs, CommCosts: costs})
	if err != nil {
		t.Fatal(err)
	}
	measured, err := pipe.AutoTune(g, 100, TuneOptions{
		Processors: procs, CommCosts: costs, Evaluator: ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Score the static winner with the same measured evaluator.
	staticScore, err := pipe.Evaluate(ev, static.Best.Plan)
	if err != nil {
		t.Fatal(err)
	}
	got := measured.Best.Score.Measured
	if got == nil || got.Trials != 5 {
		t.Fatalf("measured winner carries no 5-trial stats: %+v", measured.Best.Score)
	}
	if got.SpMean < staticScore.Measured.SpMean {
		t.Fatalf("measured-ranked winner Sp %.2f%% < static-ranked winner Sp %.2f%%",
			got.SpMean, staticScore.Measured.SpMean)
	}
	if got.SpMin > got.SpMean || got.SpMean > got.SpMax {
		t.Fatalf("Sp spread out of order: %+v", got)
	}
}

// TestSimulateSweepStillWorks pins the pre-Evaluator Simulate spelling:
// it must behave as a 1-trial measured evaluation with the provided
// machine config.
func TestSimulateSweepStillWorks(t *testing.T) {
	g := workload.Figure7().Graph
	points := Grid([]int{2, 3}, []int{2, 3})
	sim := New(Config{}).Sweep(g, points, SweepOptions{
		Simulate:      true,
		MachineConfig: machine.Config{Fluct: 3, Seed: 7},
	})
	ev := New(Config{}).Sweep(g, points, SweepOptions{
		Evaluator: &MeasuredEvaluator{Trials: 1, Fluct: 3, Seed: 7},
	})
	for i := range sim {
		if sim[i].Err != nil || ev[i].Err != nil {
			t.Fatal(sim[i].Err, ev[i].Err)
		}
		if sim[i].SimMakespan != ev[i].SimMakespan || sim[i].Sp != ev[i].Sp {
			t.Fatalf("point %+v: Simulate %d/%v != evaluator %d/%v",
				sim[i].Point, sim[i].SimMakespan, sim[i].Sp, ev[i].SimMakespan, ev[i].Sp)
		}
		// Like the pre-Evaluator path it replaces, Simulate reads
		// measurements without annotating the plans it touched.
		if sim[i].Plan.Measured() != nil {
			t.Fatalf("point %+v: Simulate sweep annotated the plan", sim[i].Point)
		}
	}
}

// TestEvaluatorCounters checks Stats.Evals: static and measured
// evaluations (and their trials) are counted across Sweep and AutoTune.
func TestEvaluatorCounters(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	points := Grid([]int{2, 3}, []int{2})
	if r := p.Sweep(g, points, SweepOptions{}); r[0].Err != nil || r[1].Err != nil {
		t.Fatal(r[0].Err, r[1].Err)
	}
	st := p.Stats()
	if st.Evals.Static != 2 || st.Evals.Measured != 0 || st.Evals.Trials != 0 {
		t.Fatalf("after static sweep: %+v", st.Evals)
	}
	if r := p.Sweep(g, points, SweepOptions{Evaluator: &MeasuredEvaluator{Trials: 3, Fluct: 2, Seed: 1}}); r[0].Err != nil {
		t.Fatal(r[0].Err)
	}
	st = p.Stats()
	if st.Evals.Static != 2 || st.Evals.Measured != 2 || st.Evals.Trials != 6 {
		t.Fatalf("after measured sweep: %+v", st.Evals)
	}
}

// TestMeasuredFluctFreeCollapsesTrials: with fluct <= 1 every trial is
// bit-identical, so the evaluator runs (and reports, and counts) one.
func TestMeasuredFluctFreeCollapsesTrials(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	plan, _, err := p.Schedule(g, fig7Opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	score, err := p.Evaluate(&MeasuredEvaluator{Trials: 8, Fluct: 0}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if score.Measured.Trials != 1 {
		t.Fatalf("fluct-free evaluation ran %d trials, want 1", score.Measured.Trials)
	}
	if st := p.Stats(); st.Evals.Trials != 1 {
		t.Fatalf("counted %d trials, want 1", st.Evals.Trials)
	}
}

// TestMeasuredEvaluationReputsAnnotatedPlan: the plan's original store
// Put happens at compute time, before any evaluation, so Evaluate must
// write the annotated plan through again — that re-put is what carries
// the measurement into durable tiers (codec v2).
func TestMeasuredEvaluationReputsAnnotatedPlan(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	plan, _, err := p.Schedule(g, fig7Opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	puts := p.Store().Stats().Puts
	if _, err := p.Evaluate(StaticEvaluator{}, plan); err != nil {
		t.Fatal(err)
	}
	if got := p.Store().Stats().Puts; got != puts {
		t.Fatalf("static evaluation wrote the store: %d puts, was %d", got, puts)
	}
	if _, err := p.Evaluate(&MeasuredEvaluator{Trials: 2, Fluct: 3, Seed: 1}, plan); err != nil {
		t.Fatal(err)
	}
	if got := p.Store().Stats().Puts; got != puts+1 {
		t.Fatalf("measured evaluation did not re-put the plan: %d puts, was %d", got, puts)
	}
	// A repeat of the identical (deterministic) evaluation changes
	// nothing and must not rewrite the store again.
	if _, err := p.Evaluate(&MeasuredEvaluator{Trials: 2, Fluct: 3, Seed: 1}, plan); err != nil {
		t.Fatal(err)
	}
	if got := p.Store().Stats().Puts; got != puts+1 {
		t.Fatalf("unchanged annotation re-put the plan: %d puts, want %d", got, puts+1)
	}
	// A different measurement does.
	if _, err := p.Evaluate(&MeasuredEvaluator{Trials: 2, Fluct: 3, Seed: 2}, plan); err != nil {
		t.Fatal(err)
	}
	if got := p.Store().Stats().Puts; got != puts+2 {
		t.Fatalf("changed annotation not re-put: %d puts, want %d", got, puts+2)
	}
	// The stored plan now carries the measurement, so a durable tier
	// would encode a v2 record with the measured block.
	stored, ok := p.Store().Get(PlanKey(plan.GraphHash, plan.Opts, plan.Iterations))
	if !ok || stored.Measured() == nil {
		t.Fatalf("stored plan lost the annotation (ok=%v)", ok)
	}
}

// TestTransientEvaluationLeavesPlanAlone: a transient probe (the
// ?simulate=1 path) reports its measurement but neither annotates the
// plan nor rewrites the store — an ad-hoc probe must never clobber a
// tune's persisted measurement.
func TestTransientEvaluationLeavesPlanAlone(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	plan, _, err := p.Schedule(g, fig7Opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberate tune-style measurement annotates the plan first.
	if _, err := p.Evaluate(&MeasuredEvaluator{Trials: 4, Fluct: 3, Seed: 1}, plan); err != nil {
		t.Fatal(err)
	}
	want := plan.Measured()
	puts := p.Store().Stats().Puts

	score, err := p.Evaluate(&MeasuredEvaluator{Trials: 1, Fluct: 0, Transient: true}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if score.Measured == nil || score.Measured.Trials != 1 {
		t.Fatalf("transient probe returned no measurement: %+v", score)
	}
	if plan.Measured() != want {
		t.Fatalf("transient probe overwrote the annotation: %+v", plan.Measured())
	}
	if got := p.Store().Stats().Puts; got != puts {
		t.Fatalf("transient probe rewrote the store: %d puts, was %d", got, puts)
	}
	if st := p.Stats(); st.Evals.Measured != 2 {
		t.Fatalf("transient probe not counted: %+v", st.Evals)
	}
}

// TestPlanCodecV3MeasuredRoundTrip: a plan annotated with measured
// evaluations from both backends persists them through encode/decode —
// neither overwrites the other — and the decoded plan re-encodes
// byte-identically.
func TestPlanCodecV3MeasuredRoundTrip(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	plan, _, err := p.Schedule(g, fig7Opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(&MeasuredEvaluator{Trials: 4, Fluct: 3, Seed: 9}, plan); err != nil {
		t.Fatal(err)
	}
	if plan.Measured() == nil {
		t.Fatal("measured evaluation did not annotate the plan")
	}
	// A second backend's annotation coexists with the simulator's
	// (hand-built so the codec test stays free of wall-clock noise).
	plan.SetMeasured(&MeasuredStats{
		Backend: "gort", Trials: 2,
		SpMin: 10, SpMean: 12, SpP95: 10, SpMax: 14,
		MakespanMin: 4000, MakespanMax: 5000, MakespanMean: 4500, MakespanP95: 5000,
	})
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"version":5`)) || !bytes.Contains(data, []byte(`"measured_by"`)) {
		t.Fatalf("record is not a measured v5 record: %s", data[:120])
	}
	key, got, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if key != PlanKey(plan.GraphHash, plan.Opts, plan.Iterations) {
		t.Fatalf("key %q", key)
	}
	if *got.MeasuredBy("sim") != *plan.MeasuredBy("sim") {
		t.Fatalf("sim stats did not round-trip: %+v vs %+v", got.MeasuredBy("sim"), plan.MeasuredBy("sim"))
	}
	if *got.MeasuredBy("gort") != *plan.MeasuredBy("gort") {
		t.Fatalf("gort stats did not round-trip: %+v vs %+v", got.MeasuredBy("gort"), plan.MeasuredBy("gort"))
	}
	data2, err := EncodePlan(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoded v5 record not byte-identical")
	}
}

// TestPlanCodecDecodesV2 pins backward compatibility with the PR 4
// format: a version-2 record's single "measured" block (which predates
// backend identity) must decode as the sim backend's annotation. The
// record is the committed version-4 figure 7 record annotated by sim
// and gort, rewritten to its version-2 shape.
func TestPlanCodecDecodesV2(t *testing.T) {
	data := readRecord(t, v4Records[2])
	_, plan, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the v4 record into its v2 shape: version header 2, the
	// measured_by array replaced by its sim element under "measured",
	// with the (then nonexistent) backend and p95 fields dropped.
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	var measured []map[string]json.RawMessage
	if err := json.Unmarshal(rec["measured_by"], &measured); err != nil {
		t.Fatal(err)
	}
	var sim map[string]json.RawMessage
	for _, ms := range measured {
		if string(ms["backend"]) == `"sim"` {
			sim = ms
		}
	}
	if sim == nil {
		t.Fatalf("expected a sim annotation among %d", len(measured))
	}
	delete(sim, "backend")
	delete(sim, "sp_p95")
	delete(sim, "makespan_p95")
	single, err := json.Marshal(sim)
	if err != nil {
		t.Fatal(err)
	}
	delete(rec, "measured_by")
	rec["measured"] = single
	rec["version"] = json.RawMessage("2")
	v2, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodePlan(v2)
	if err != nil {
		t.Fatalf("v2 record no longer decodes: %v", err)
	}
	ms := got.MeasuredBy("sim")
	if ms == nil {
		t.Fatal("v2 measured block not adopted as the sim backend's annotation")
	}
	want := plan.MeasuredBy("sim")
	if ms.Backend != "sim" || ms.Trials != want.Trials || ms.SpMean != want.SpMean ||
		ms.MakespanMean != want.MakespanMean {
		t.Fatalf("v2 annotation drifted: %+v vs %+v", ms, want)
	}
	if got.MeasuredBy("gort") != nil {
		t.Fatal("v2 record grew a gort annotation from nowhere")
	}
}

// TestGortEvaluatorFigure7 is the acceptance pin for the goroutine
// backend: a measured evaluation on gort executes the Figure 7 plan for
// real (value-checked against the sequential interpretation inside the
// backend), reports a finite measured Sp and a positive wall-clock rate,
// and annotates the plan under the backend's own identity — without
// touching the simulator's annotation.
func TestGortEvaluatorFigure7(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	plan, _, err := p.Schedule(g, fig7Opts, 60)
	if err != nil {
		t.Fatal(err)
	}
	// A sim measurement first, so cross-backend isolation is observable.
	if _, err := p.Evaluate(&MeasuredEvaluator{Trials: 3, Fluct: 3, Seed: 1}, plan); err != nil {
		t.Fatal(err)
	}
	simStats := plan.MeasuredBy("sim")
	if simStats == nil || simStats.Backend != "sim" {
		t.Fatalf("sim annotation missing: %+v", simStats)
	}

	gort := &MeasuredEvaluator{Trials: 2, Backend: exec.Goroutine{}}
	score, err := p.Evaluate(gort, plan)
	if err != nil {
		t.Fatal(err)
	}
	if score.Rate <= 0 || math.IsInf(score.Rate, 0) || math.IsNaN(score.Rate) {
		t.Fatalf("gort rate %v ns/iteration", score.Rate)
	}
	m := score.Measured
	if m == nil || m.Backend != "gort" || m.Trials != 2 {
		t.Fatalf("gort measured block %+v", m)
	}
	for _, sp := range []float64{m.SpMin, m.SpMean, m.SpP95, m.SpMax} {
		if math.IsInf(sp, 0) || math.IsNaN(sp) {
			t.Fatalf("gort Sp not finite: %+v", m)
		}
	}
	if m.MakespanMin <= 0 || m.MakespanMax < m.MakespanMin {
		t.Fatalf("gort makespan spread %+v", m)
	}
	if got := plan.MeasuredBy("gort"); got != m {
		t.Fatalf("gort annotation %+v, want the evaluation's stats", got)
	}
	if got := plan.MeasuredBy("sim"); got != simStats {
		t.Fatalf("gort evaluation overwrote the sim annotation: %+v", got)
	}
	if st := p.Stats(); st.Evals.Measured != 2 || st.Evals.Trials != 5 {
		t.Fatalf("counters after sim+gort evals: %+v", st.Evals)
	}
}

// TestSpreadObjectivesRankStatistics: the evaluator's Objective selects
// which distribution statistic becomes Score.Rate — mean (default),
// worst, or p95 — while the annotated stats stay identical.
func TestSpreadObjectivesRankStatistics(t *testing.T) {
	g := workload.Figure7().Graph
	p := New(Config{})
	plan, _, err := p.Schedule(g, fig7Opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	base := MeasuredEvaluator{Trials: 8, Fluct: 4, Seed: 3}
	rates := map[EvalObjective]float64{}
	var stats *MeasuredStats
	for _, obj := range []EvalObjective{EvalMean, EvalWorst, EvalP95} {
		ev := base
		ev.Objective = obj
		score, err := p.Evaluate(&ev, plan)
		if err != nil {
			t.Fatal(err)
		}
		rates[obj] = score.Rate
		if stats == nil {
			stats = score.Measured
		} else if *score.Measured != *stats {
			t.Fatalf("objective %v changed the measured stats: %+v vs %+v", obj, score.Measured, stats)
		}
	}
	n := float64(plan.Iterations)
	if rates[EvalMean] != stats.MakespanMean/n {
		t.Errorf("mean rate %v, want %v", rates[EvalMean], stats.MakespanMean/n)
	}
	if rates[EvalWorst] != float64(stats.MakespanMax)/n {
		t.Errorf("worst rate %v, want %v", rates[EvalWorst], float64(stats.MakespanMax)/n)
	}
	if rates[EvalP95] != stats.MakespanP95/n {
		t.Errorf("p95 rate %v, want %v", rates[EvalP95], stats.MakespanP95/n)
	}
	if rates[EvalWorst] < rates[EvalP95] || rates[EvalWorst] < rates[EvalMean] {
		t.Errorf("worst must bound the other statistics: %+v", rates)
	}
	if stats.SpMin > stats.SpP95 || stats.SpP95 > stats.SpMax {
		t.Errorf("Sp spread out of order: %+v", stats)
	}
	// AutoTune consumes the spread-aware rate through the ordinary
	// objective machinery — a worst-case tune runs end to end and its
	// winner minimizes the worst measured makespan over the grid.
	res, err := p.AutoTune(g, 50, TuneOptions{
		Processors: []int{1, 2, 3}, CommCosts: []int{1, 2, 3},
		Evaluator: &MeasuredEvaluator{Trials: 5, Fluct: 4, Seed: 3, Objective: EvalWorst},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "sim" || res.Evaluator != "measured" {
		t.Fatalf("tune echo: evaluator %q backend %q", res.Evaluator, res.Backend)
	}
	for _, r := range res.Results {
		if r.Err == nil && r.Score.Rate < res.Best.Score.Rate {
			t.Fatalf("point %+v beats the worst-case winner: %v < %v", r.Point, r.Score.Rate, res.Best.Score.Rate)
		}
	}
}

// noisyBackend is a fake non-deterministic backend that records how many
// RunTrials calls overlap, for pinning sweep serialization.
type noisyBackend struct {
	mu       sync.Mutex
	cur, max int
}

func (b *noisyBackend) Name() string                      { return "noisy" }
func (b *noisyBackend) Deterministic() bool               { return false }
func (b *noisyBackend) EffectiveTrials(trials, _ int) int { return trials }
func (b *noisyBackend) RunTrials(g *graph.Graph, progs []program.Program, iterations int, cfg exec.TrialConfig) (*exec.TrialStats, error) {
	b.mu.Lock()
	b.cur++
	if b.cur > b.max {
		b.max = b.cur
	}
	b.mu.Unlock()
	time.Sleep(2 * time.Millisecond) // widen any overlap window
	b.mu.Lock()
	b.cur--
	b.mu.Unlock()
	return &exec.TrialStats{
		Backend:    "noisy",
		Trials:     cfg.Trials,
		Makespans:  []float64{100},
		Sequential: float64(iterations * g.TotalLatency()),
	}, nil
}

// TestSweepSerializesNonDeterministicBackends: a sweep scored by a
// wall-clock backend must never time two grid points concurrently —
// parallel timed runs would measure cross-point CPU interference, not
// plan quality — whatever worker count was requested.
func TestSweepSerializesNonDeterministicBackends(t *testing.T) {
	g := workload.Figure7().Graph
	be := &noisyBackend{}
	res := New(Config{}).Sweep(g, Grid([]int{1, 2, 3}, []int{1, 2}), SweepOptions{
		Workers:   8,
		Evaluator: &MeasuredEvaluator{Trials: 1, Backend: be},
	})
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if be.max != 1 {
		t.Fatalf("%d wall-clock evaluations overlapped, want serial execution", be.max)
	}
}

// TestEffectiveTrialsSharedBilling is the regression test for moving the
// fluct<=1 collapse out of server validation: the evaluator/backend
// layer owns it, so the library evaluator, the CLI (which constructs the
// same evaluator) and the HTTP eval block all resolve the same counts.
func TestEffectiveTrialsSharedBilling(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   MeasuredEvaluator
		req  EvalRequest
		want int
	}{
		{"sim fluct-free collapses", MeasuredEvaluator{Trials: 8, Fluct: 0},
			EvalRequest{Mode: "measured", Trials: 8, Fluct: 0}, 1},
		{"sim fluct 1 collapses", MeasuredEvaluator{Trials: 8, Fluct: 1},
			EvalRequest{Mode: "measured", Trials: 8, Fluct: 1}, 1},
		{"sim fluctuating runs all", MeasuredEvaluator{Trials: 8, Fluct: 3},
			EvalRequest{Mode: "measured", Trials: 8, Fluct: 3}, 8},
		{"sim default", MeasuredEvaluator{Fluct: 3},
			EvalRequest{Mode: "measured", Fluct: 3}, DefaultEvalTrials},
		{"gort never collapses", MeasuredEvaluator{Trials: 4, Backend: exec.Goroutine{}},
			EvalRequest{Mode: "measured", Trials: 4, Backend: "gort"}, 4},
		{"gort default", MeasuredEvaluator{Backend: exec.Goroutine{}},
			EvalRequest{Mode: "measured", Backend: "gort"}, DefaultEvalTrials},
	} {
		if got := tc.ev.EffectiveTrials(); got != tc.want {
			t.Errorf("%s: evaluator resolves %d trials, want %d", tc.name, got, tc.want)
		}
		if got := tc.req.trials(); got != tc.want {
			t.Errorf("%s: server bills %d trials, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPlanCodecDecodesV1 pins backward compatibility: a version-1 record
// (the PR 3 format, no measured block) must still decode and serve. The
// record is the committed version-4 figure 7 record at 20 iterations
// with its header rewritten, and it serves what the current code builds.
func TestPlanCodecDecodesV1(t *testing.T) {
	g := workload.Figure7().Graph
	plan, _, err := New(Config{}).Schedule(g, fig7Opts, 20)
	if err != nil {
		t.Fatal(err)
	}
	data := readRecord(t, v4Records[0])
	// Rewrite the header to version 1. The plan was never measured, so
	// the rest of the record is exactly the PR 3 format.
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if _, hasMeasured := rec["measured_by"]; hasMeasured {
		t.Fatal("unmeasured plan encoded a measured block")
	}
	v1 := bytes.Replace(data, []byte(`"version":4`), []byte(`"version":1`), 1)
	key, got, err := DecodePlan(v1)
	if err != nil {
		t.Fatalf("v1 record no longer decodes: %v", err)
	}
	if key != PlanKey(plan.GraphHash, plan.Opts, plan.Iterations) {
		t.Fatalf("v1 key %q", key)
	}
	if got.Measured() != nil {
		t.Fatal("v1 record grew measured stats from nowhere")
	}
	if got.Rate() != plan.Rate() || got.Procs() != plan.Procs() || got.Makespan() != plan.Makespan() {
		t.Fatal("v1 serving summary differs")
	}
	js1, err := plan.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	js2, err := got.ScheduleJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("v1 schedule JSON not byte-identical")
	}
}

// TestDecodedPlanSharesGortBaseline: a plan decoded from its own record
// brings its own copy of the graph, and a gort evaluation of it divides
// by the same memoized sequential baseline as the plan it was encoded
// from, so a tune over a restarted server's stored grid ranks every
// point against one measurement.
func TestDecodedPlanSharesGortBaseline(t *testing.T) {
	_, built := buildFig7Plan(t, 60)
	data, err := EncodePlan(built)
	if err != nil {
		t.Fatal(err)
	}
	_, twin, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if twin.Schedule.Graph == built.Schedule.Graph {
		t.Fatal("the decoded plan shares the built plan's graph")
	}
	exec.ResetSequentialBaselines()
	var seq []float64
	for _, p := range []*Plan{built, twin} {
		ts, err := exec.Goroutine{}.RunTrials(p.Schedule.Graph, p.Programs, p.Iterations, exec.TrialConfig{Trials: 1})
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, ts.Sequential)
	}
	if seq[0] != seq[1] {
		t.Fatalf("built plan's sequential baseline %v ns, decoded twin's %v ns: one measurement each", seq[0], seq[1])
	}
}
