package pipeline

import (
	"fmt"
	"reflect"
	"sync"

	"mimdloop/internal/exec"
	"mimdloop/internal/machine"
	"mimdloop/internal/metrics"
)

// Evaluator scores a plan's "goodness". Every consumer of plan quality —
// Sweep, AutoTune objectives, batch summaries, the HTTP tune endpoint,
// the experiments — goes through this interface instead of reading the
// scheduled rate directly, so how a plan is judged is a pluggable policy:
//
//   - StaticEvaluator reports the compile-time scheduled rate (the
//     paper's cycles/iteration from the verified pattern) — free, exact
//     for the cost model, blind to communication fluctuation.
//   - MeasuredEvaluator lowers the plan to per-processor programs and
//     executes them on a pluggable exec.Backend for R trials — the
//     deterministic simulated MIMD machine under a seeded fluctuation
//     model ("sim", the paper's Table 1 protocol), or the real
//     goroutine-per-processor runtime timed on the wall clock ("gort").
//
// Static and sim-backend evaluators are pure per (evaluator value, plan):
// deterministic and safe for concurrent use, which is what lets Sweep fan
// evaluations out on a worker pool without changing results. The gort
// backend is safe for concurrent use but measures wall-clock time, so its
// scores are honest samples rather than replayable constants.
type Evaluator interface {
	// Name is the evaluator's wire name ("static", "measured"), echoed in
	// tune replies and stats.
	Name() string
	// Evaluate scores one plan. Implementations must not mutate the plan
	// beyond Plan.SetMeasured.
	Evaluate(p *Plan) (Score, error)
}

// Score is one evaluator's verdict on a plan. Rate is the quantity
// AutoTune objectives rank by: for StaticEvaluator it equals Plan.Rate()
// exactly; for MeasuredEvaluator it is the selected statistic of the
// measured makespan distribution per iteration (mean by default, worst
// or p95 under a spread-aware EvalObjective), so tuning optimizes
// measured Sp rather than the scheduled rate (Sp and Rate are inverse
// views of the same measurement: lower measured rate ⇔ higher measured
// Sp).
type Score struct {
	// Rate is cycles/iteration under this evaluator (backend-native
	// units per iteration for measured scores: cycles for sim,
	// nanoseconds for gort).
	Rate float64
	// Procs is the processors the plan occupies (same for all evaluators).
	Procs int
	// Measured carries the trial spread for evaluators that executed the
	// plan; nil for static scoring.
	Measured *MeasuredStats
}

// MeasuredStats is the wire form of a measured evaluation: which backend
// ran it, the parameters it ran under and the Sp/makespan spread over
// the trials. It is embedded in tune replies, `?simulate=1` schedule
// replies, and version-3 plan records. Makespans are in the backend's
// native units (sim: cycles, gort: wall-clock nanoseconds); Sp is
// unit-free and comparable across backends.
type MeasuredStats struct {
	// Backend identifies the execution model that produced the stats
	// ("sim", "gort"). Empty in records written before the backend layer
	// existed; DecodePlan normalizes those to "sim", the only backend
	// that could have produced them.
	Backend string `json:"backend,omitempty"`
	// Trials, Fluct and Seed echo the evaluation parameters, making the
	// stats self-describing wherever they are persisted. Fluct and Seed
	// are sim-backend concepts; the gort backend's variation is physical.
	Trials int   `json:"trials"`
	Fluct  int   `json:"fluct"`
	Seed   int64 `json:"seed"`
	// Sp spread: percentage parallelism vs the sequential schedule,
	// clamped at 0 like the paper's tables. SpMin corresponds to the
	// worst (largest) makespan; SpP95 to the nearest-rank 95th-percentile
	// makespan (the near-worst tail the p95 objective ranks by).
	SpMin  float64 `json:"sp_min"`
	SpMean float64 `json:"sp_mean"`
	SpP95  float64 `json:"sp_p95"`
	SpMax  float64 `json:"sp_max"`
	// Makespan spread over the trials, in the backend's native units.
	MakespanMin  int     `json:"makespan_min"`
	MakespanMax  int     `json:"makespan_max"`
	MakespanMean float64 `json:"makespan_mean"`
	MakespanP95  float64 `json:"makespan_p95"`
	// Utilization is mean busy/(makespan×procs) over the trials; 0 when
	// the backend cannot account it (gort).
	Utilization float64 `json:"utilization"`
}

// EvalObjective selects which statistic of the measured makespan
// distribution a MeasuredEvaluator reports as its Score.Rate — and
// therefore what AutoTune optimizes when tuning measured. The spread
// matters because two plans with equal mean Sp can differ wildly in how
// badly their worst trials degrade (cf. the run-it-both-ways validation
// stance of McKenney, arXiv:1701.00854).
type EvalObjective int

const (
	// EvalMean ranks by the mean makespan — the PR 4 behaviour, and the
	// default.
	EvalMean EvalObjective = iota
	// EvalWorst ranks by the worst (largest) trial makespan: optimize
	// what the unluckiest run delivers.
	EvalWorst
	// EvalP95 ranks by the nearest-rank 95th-percentile makespan: the
	// tail-latency view; robust to a single outlier trial.
	EvalP95
)

// String returns the wire name of the objective ("mean", "worst", "p95").
func (o EvalObjective) String() string {
	switch o {
	case EvalMean:
		return "mean"
	case EvalWorst:
		return "worst"
	case EvalP95:
		return "p95"
	}
	return fmt.Sprintf("eval_objective(%d)", int(o))
}

// ParseEvalObjective is the inverse of EvalObjective.String; "" means
// EvalMean.
func ParseEvalObjective(s string) (EvalObjective, error) {
	switch s {
	case "", "mean":
		return EvalMean, nil
	case "worst":
		return EvalWorst, nil
	case "p95":
		return EvalP95, nil
	}
	return 0, fmt.Errorf("unknown eval objective %q (want mean, worst or p95)", s)
}

// StaticEvaluator scores plans by their compile-time scheduled rate —
// the exact math Sweep and AutoTune used before evaluators existed,
// extracted behind the interface and test-pinned to produce identical
// results.
type StaticEvaluator struct{}

// Name implements Evaluator.
func (StaticEvaluator) Name() string { return "static" }

// Evaluate implements Evaluator.
func (StaticEvaluator) Evaluate(p *Plan) (Score, error) {
	return Score{Rate: p.Rate(), Procs: p.Procs()}, nil
}

// MeasuredEvaluator scores plans by executing their lowered programs on
// an exec.Backend for Trials repeated runs. With the default sim backend
// the trials run on the simulated MIMD machine under a seeded
// fluctuation model — deterministic per (evaluator, plan) and safe to
// run concurrently — so each plan runs a given configuration once and
// replays it afterwards (see Evaluate). With the gort backend they run
// for real on the goroutine-per-processor runtime, timed on the wall
// clock and value-checked against the sequential interpretation, on
// every evaluation. The returned Score.Rate is the Objective's
// statistic of the measured makespan distribution per iteration, so
// AutoTune under any objective ranks by what the chosen execution model
// actually did.
type MeasuredEvaluator struct {
	// Trials is the number of runs to aggregate. 0 means 5. The backend
	// may collapse the count (the sim backend runs one trial when
	// fluctuation is off — every trial would be bit-identical).
	Trials int
	// Fluct is the paper's mm: per-message extra delay in [0, mm-1]
	// (sim backend only).
	Fluct int
	// Seed selects the fluctuation streams (sim backend only; trial t
	// runs under machine.TrialSeed(Seed, t)).
	Seed int64
	// Base supplies the remaining machine settings (LinkFIFO, Override)
	// for the sim backend; its Fluct and Seed fields are overwritten by
	// the evaluator's own.
	Base machine.Config
	// Backend selects the execution model. nil means exec.Sim — the
	// simulated machine, byte-for-byte the pre-backend behaviour.
	Backend exec.Backend
	// Objective selects the distribution statistic Score.Rate reports:
	// mean (default), worst, or p95.
	Objective EvalObjective
	// Transient marks a probe: the plan is measured and the score
	// reported, but the plan is not annotated and nothing is persisted.
	// The /v1/schedule?simulate=1 path sets it so an ad-hoc 1-trial
	// probe never overwrites a tune's stored measurement.
	Transient bool
}

// DefaultEvalTrials is the trial count a measured evaluation runs when
// none is given — here, in the HTTP eval block, and in the CLI.
const DefaultEvalTrials = 5

// NewMeasuredEvaluator returns a measured evaluator running `trials`
// seeded simulations per plan with fluctuation mm on the sim backend.
func NewMeasuredEvaluator(trials, fluct int, seed int64) *MeasuredEvaluator {
	return &MeasuredEvaluator{Trials: trials, Fluct: fluct, Seed: seed}
}

// Name implements Evaluator.
func (e *MeasuredEvaluator) Name() string { return "measured" }

// backend resolves the evaluator's execution model (nil = sim).
func (e *MeasuredEvaluator) backend() exec.Backend {
	if e.Backend != nil {
		return e.Backend
	}
	return exec.Sim{}
}

// BackendName returns the wire name of the evaluator's execution model.
func (e *MeasuredEvaluator) BackendName() string { return e.backend().Name() }

// Deterministic reports whether repeated evaluations replay identical
// scores — the backend's own determinism. Sweep serializes evaluation
// when this is false, so wall-clock measurements never time each other's
// CPU contention.
func (e *MeasuredEvaluator) Deterministic() bool { return e.backend().Deterministic() }

// EffectiveTrials resolves the trial count the evaluation will actually
// run (and should be billed at): the default applied, then the backend's
// collapse rule — the sim backend runs a single trial when fluctuation
// is off, since every trial would be bit-identical. This is the one
// place the collapse lives; library, CLI and HTTP callers all share it.
func (e *MeasuredEvaluator) EffectiveTrials() int {
	trials := e.Trials
	if trials == 0 {
		trials = DefaultEvalTrials
	}
	return e.backend().EffectiveTrials(trials, e.Fluct)
}

// Evaluate implements Evaluator: it runs the plan's programs through the
// backend's trial harness and converts the makespan spread to Sp against
// the backend's own sequential baseline (the sequential schedule length
// for sim, a timed sequential interpretation for gort). The stats are
// also attached to the plan under the backend's name (Plan.SetMeasured),
// so durable stores persist the last measurement per backend alongside
// the schedule (plan codec v3) — a gort measurement never overwrites a
// sim one, or vice versa.
//
// A deterministic backend's trials run once per (plan, configuration):
// the plan keeps their summary in a few memo slots keyed on the backend
// value and the trial configuration, and a repeat evaluation replays it.
// Objective and Transient are not part of the key, since they only read
// the summary. Non-deterministic backends (gort) always run.
func (e *MeasuredEvaluator) Evaluate(p *Plan) (Score, error) {
	score, _, err := e.evaluate(p)
	return score, err
}

// evaluate is Evaluate that also reports whether the trial summary was
// replayed from the plan's memo instead of run.
func (e *MeasuredEvaluator) evaluate(p *Plan) (Score, bool, error) {
	if p.Iterations <= 0 {
		return Score{}, false, fmt.Errorf("pipeline: measured evaluation of a %d-iteration plan", p.Iterations)
	}
	key := evalKey{backend: e.backend(), cfg: exec.TrialConfig{
		Trials:  e.EffectiveTrials(),
		Fluct:   e.Fluct,
		Seed:    e.Seed,
		Grain:   p.Opts.Grain,
		Machine: e.Base,
	}}
	// The memo compares backends with ==, which panics on a type that is
	// not comparable; such a backend runs every time.
	var memo *evalMemo
	if key.backend.Deterministic() && reflect.TypeOf(key.backend).Comparable() {
		memo = p.evals()
	}
	var sum trialSummary
	replayed := false
	if memo != nil {
		sum, replayed = memo.lookup(key)
	}
	if !replayed {
		ts, err := key.backend.RunTrials(p.Schedule.Graph, p.Programs, p.Iterations, key.cfg)
		if err != nil {
			return Score{}, false, fmt.Errorf("pipeline: measured evaluation: %w", err)
		}
		sum = summarize(ts)
		if memo != nil {
			memo.store(key, sum)
		}
	}
	sp := func(par float64) float64 {
		return metrics.ClampZero(metrics.PercentParallelismFloat(sum.seq, par))
	}
	ms := &MeasuredStats{
		Backend:      sum.backend,
		Trials:       sum.trials,
		Fluct:        e.Fluct,
		Seed:         e.Seed,
		SpMin:        sp(sum.max),
		SpMean:       sp(sum.mean),
		SpP95:        sp(sum.p95),
		SpMax:        sp(sum.min),
		MakespanMin:  int(sum.min),
		MakespanMax:  int(sum.max),
		MakespanMean: sum.mean,
		MakespanP95:  sum.p95,
		Utilization:  sum.util,
	}
	if !e.Transient {
		p.SetMeasured(ms)
	}
	ranked := sum.mean
	switch e.Objective {
	case EvalWorst:
		ranked = sum.max
	case EvalP95:
		ranked = sum.p95
	}
	return Score{
		Rate:     ranked / float64(p.Iterations),
		Procs:    p.Procs(),
		Measured: ms,
	}, replayed, nil
}

// trialSummary is the part of an exec.TrialStats that Evaluate reads. It
// has a fixed size, so a plan's memo never holds a run's samples.
type trialSummary struct {
	backend                        string
	trials                         int
	min, max, mean, p95, seq, util float64
}

func summarize(ts *exec.TrialStats) trialSummary {
	return trialSummary{
		backend: ts.Backend, trials: ts.Trials,
		min: ts.Min(), max: ts.Max(), mean: ts.Mean(), p95: ts.P95(),
		seq: ts.Sequential, util: ts.Utilization,
	}
}

// evalMemoSlots is how many configurations a plan's memo holds. One
// workload can put three on a plan (a sim tune, a sim probe at another
// fluctuation, a csim tune); with fewer slots they would evict each
// other on every cycle.
const evalMemoSlots = 4

// evalKey is everything a deterministic backend reads besides the plan:
// the backend value itself (so a csim cost model is part of the key) and
// the trial configuration.
type evalKey struct {
	backend exec.Backend
	cfg     exec.TrialConfig
}

// evalMemo holds a plan's deterministic evaluations in a fixed number of
// slots, replaced round-robin, so a client sending a new seed per request
// cannot grow a cached plan.
type evalMemo struct {
	mu   sync.Mutex
	next int
	keys [evalMemoSlots]evalKey
	sums [evalMemoSlots]trialSummary
}

func (m *evalMemo) lookup(k evalKey) (trialSummary, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.keys {
		if m.keys[i] == k {
			return m.sums[i], true
		}
	}
	return trialSummary{}, false
}

func (m *evalMemo) store(k evalKey, s trialSummary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.keys {
		if m.keys[i] == k { // a concurrent evaluation stored it first
			return
		}
	}
	m.keys[m.next], m.sums[m.next] = k, s
	m.next = (m.next + 1) % evalMemoSlots
}

// Evaluate scores plan under ev (nil means StaticEvaluator), counting
// the evaluation in the pipeline's Stats: static and measured
// evaluations, the measured ones a deterministic backend replayed from
// the plan's memo, and the trials that actually ran. All pipeline
// consumers (Sweep, AutoTune, the HTTP server's tune/simulate/batch
// paths) evaluate through here, so the counters are a complete picture
// of scoring activity.
func (p *Pipeline) Evaluate(ev Evaluator, plan *Plan) (Score, error) {
	if ev == nil {
		ev = StaticEvaluator{}
	}
	var (
		prev     *MeasuredStats
		score    Score
		replayed bool
		err      error
	)
	if me, ok := ev.(*MeasuredEvaluator); ok {
		prev = plan.MeasuredBy(me.BackendName())
		score, replayed, err = me.evaluate(plan)
	} else {
		score, err = ev.Evaluate(plan)
	}
	if err != nil {
		return score, err
	}
	if score.Measured != nil {
		p.measuredEvals.Add(1)
		if replayed {
			p.replayedEvals.Add(1)
		} else {
			p.evalTrials.Add(uint64(score.Measured.Trials))
		}
		// Re-put the plan when the evaluation changed its annotation
		// (transient probes do not annotate, and SetMeasured keeps the old
		// pointer for equal stats), so durable tiers rewrite its record
		// with the measurement: the original Put ran at compute time,
		// before any evaluation, so without this write-through the codec's
		// measured block would never reach disk. With a disk tier each Put
		// is an fsync'd file.
		if m := plan.MeasuredBy(score.Measured.Backend); m != nil && m != prev && !p.cfg.DisableCache {
			p.store.Put(PlanKey(plan.GraphHash, plan.Opts, plan.Iterations), plan)
		}
	} else {
		p.staticEvals.Add(1)
	}
	return score, nil
}
