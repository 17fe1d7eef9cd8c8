package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"strconv"

	"mimdloop/internal/classify"
	"mimdloop/internal/core"
	"mimdloop/internal/exec"
	"mimdloop/internal/graph"
	"mimdloop/internal/loopir"
	"mimdloop/internal/machine"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
	"mimdloop/internal/store"
)

// replayer re-executes, after each traced request, the library calls the
// server made for it, in pipeline order and on the same inputs, timing
// each as a span under the request's handler span: compile and key
// derivation for every schedule-shaped request, the scheduling chain
// (classify, Cyclic-sched, expand, compose, lower, render) for every plan
// the server built, the codec for every disk read and write the store
// decorators saw, and the evaluation chain (Evaluate, the backend's
// trials, one machine or runtime pass) for every measured evaluation.
type replayer struct {
	tr   *tracer
	disk *store.DiskStore
	// eval scores replayed evaluations; it has no store of its own, and
	// its evaluators are transient, so replaying never annotates a plan.
	eval *pipeline.Pipeline
	// compiled holds the sources the server has compiled: a cached source
	// compiles without parsing, so it replays no compile. (A traced
	// prefix holds fewer distinct sources than the server's compile cache
	// keeps, so none is evicted there.)
	compiled map[string]bool
	// plans are the server's plans by key, as the decorators saw them.
	plans map[string]*pipeline.Plan
	// built holds plans whose construction was already replayed.
	built map[*pipeline.Plan]bool

	// Per-plan counts of the replayed scheduling chain.
	plansBuilt, placements, fallbacks int
	instrs, sendsPerIter              float64
	// Tune accounting: grid points, infeasible points, tune requests.
	points, infeasible, tunes int
	valueErrors               int
}

func newReplayer(tr *tracer, disk *store.DiskStore) *replayer {
	return &replayer{
		tr: tr, disk: disk,
		eval:     pipeline.New(pipeline.Config{DisableCache: true}),
		compiled: make(map[string]bool),
		plans:    make(map[string]*pipeline.Plan),
		built:    make(map[*pipeline.Plan]bool),
	}
}

// replay runs request r's library calls under the handler span parent.
func (rp *replayer) replay(req, parent int, r *request, body []byte) error {
	events := rp.tr.takeEvents()
	for _, ev := range events {
		if ev.plan != nil {
			rp.plans[ev.key] = ev.plan
		}
	}
	switch r.kind {
	case "schedule", "unseen", "probe":
		rp.front(req, parent, r.loop.src, r.loop.g, []core.Options{r.opts}, r.n)
	case "batch":
		for _, it := range r.items {
			rp.front(req, parent, it.loop.src, it.loop.g, []core.Options{it.opts}, it.n)
		}
	case "tune":
		var opts []core.Options
		for _, pt := range pipeline.GrainGrid(r.tune.Processors, r.tune.CommCosts, r.tune.Grains) {
			o := core.Options{Processors: pt.Processors, CommCost: pt.CommCost, Grain: pt.Grain}
			if o.Grain <= 1 {
				o.Grain = 0
			}
			opts = append(opts, o)
		}
		rp.front(req, parent, r.loop.src, r.loop.g, opts, r.n)
	}
	for _, ev := range events {
		switch {
		case ev.op == "put" && ev.tier == "store.disk":
			if err := rp.diskPut(req, parent, ev); err != nil {
				return err
			}
		case ev.op == "get" && ev.hit && ev.tier == "store.disk":
			if err := rp.diskGet(req, ev); err != nil {
				return err
			}
		}
	}
	switch r.kind {
	case "probe":
		return rp.probe(req, parent, r)
	case "tune":
		return rp.tune(req, parent, r, body)
	}
	return nil
}

// front replays what every schedule-shaped request costs before the
// store: compiling the source (unless the server's compile cache holds
// it) and deriving one plan key per requested option set.
func (rp *replayer) front(req, parent int, src string, g *graph.Graph, opts []core.Options, n int) {
	if !rp.compiled[src] {
		rp.compiled[src] = true
		rp.tr.timed("loopir.compile", parent, req, true, func() {
			if l, err := loopir.Parse(src); err == nil {
				_, _ = loopir.Compile(l)
			}
		})
	}
	fp := g.Fingerprint()
	for _, o := range opts {
		rp.tr.timed("pipeline.key", parent, req, true, func() { pipeline.PlanKey(fp, o, n) })
	}
}

// diskPut replays a disk write: a plan written for the first time was
// built by the server, so its scheduling chain is replayed, and its
// schedule rendered (a built plan renders on its first write); every
// write encodes the record.
func (rp *replayer) diskPut(req, parent int, ev storeEvent) error {
	p := ev.plan
	if !rp.built[p] && p.Schedule.Class != nil {
		rp.built[p] = true
		full, err := rp.build(req, parent, p.Schedule.Graph, p.Opts, p.Iterations)
		if err != nil {
			return err
		}
		s := rp.tr.timed("plan.render", ev.span, req, true, func() { _, err = full.MarshalJSON() })
		if err != nil {
			return err
		}
		sched, err := p.ScheduleJSON()
		if err != nil {
			return err
		}
		rp.tr.setValue(s.ID, float64(len(sched)))
	}
	var err error
	rp.tr.timed("pipeline.codec.encode", ev.span, req, true, func() { _, err = pipeline.EncodePlan(p) })
	return err
}

// build replays core.ScheduleLoop and program.Build for one plan. The
// classify, Cyclic-sched and expand calls ScheduleLoop makes inside are
// timed again separately as its children, so its self time is the
// composition (Flow-in/Flow-out placement and folding).
func (rp *replayer) build(req, parent int, g *graph.Graph, opts core.Options, n int) (*plan.Schedule, error) {
	var ls *core.LoopSchedule
	var err error
	loopSpan := rp.tr.timed("core.schedule_loop", parent, req, true, func() { ls, err = core.ScheduleLoop(g, opts, n) })
	if err != nil {
		return nil, fmt.Errorf("replay schedule: %w", err)
	}
	// A grain-G plan is scheduled in chunk space: the inner calls run on
	// the chunk graph for ceil(n/G) chunk iterations.
	cg, copts, cn := g, opts, n
	if opts.Grain > 1 {
		if cg, err = graph.Chunked(g, opts.Grain); err != nil {
			return nil, err
		}
		copts.Grain = 0
		cn = (n + opts.Grain - 1) / opts.Grain
	}
	var class *classify.Result
	var sub *graph.Graph
	rp.tr.timed("classify.partition", loopSpan.ID, req, true, func() {
		class = classify.Partition(cg)
		if !class.IsDOALL() {
			sub, _, err = classify.CyclicSubgraph(cg, class)
		}
	})
	if err != nil {
		return nil, err
	}
	if sub != nil {
		var multi *core.MultiResult
		var cerr error
		rp.tr.timed("core.cyclic_sched", loopSpan.ID, req, true, func() { multi, cerr = core.CyclicSchedAll(sub, copts) })
		if cerr == nil {
			rp.tr.timed("core.expand", loopSpan.ID, req, true, func() { _, err = multi.Expand(cn) })
			if err != nil {
				return nil, err
			}
		}
	}
	var progs []program.Program
	rp.tr.timed("program.lower", parent, req, true, func() { progs, err = program.Build(ls.Full) })
	if err != nil {
		return nil, err
	}
	st := program.Summarize(progs)
	rp.plansBuilt++
	rp.placements += len(ls.Full.Placements)
	if ls.GreedyFallback {
		rp.fallbacks++
	}
	for _, pr := range progs {
		rp.instrs += float64(len(pr.Instrs))
	}
	rp.sendsPerIter += float64(st.Sends) / float64(n)
	return ls.Full, nil
}

// diskGet replays the decode of a record the disk tier read.
func (rp *replayer) diskGet(req int, ev storeEvent) error {
	rc, _, err := rp.disk.OpenRecord(ev.key)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return err
	}
	s := rp.tr.timed("pipeline.codec.decode", ev.span, req, true, func() { _, _, err = pipeline.DecodePlan(data) })
	rp.tr.setValue(s.ID, float64(len(data)))
	return err
}

// probe replays a ?simulate=1 evaluation.
func (rp *replayer) probe(req, parent int, r *request) error {
	u, err := url.Parse(r.path)
	if err != nil {
		return err
	}
	q := u.Query()
	atoi := func(k string) int { v, _ := strconv.Atoi(q.Get(k)); return v }
	seed, _ := strconv.ParseInt(q.Get("seed"), 10, 64)
	ev := &pipeline.MeasuredEvaluator{Trials: atoi("trials"), Fluct: atoi("fluct"), Seed: seed, Transient: true}
	return rp.evaluate(req, parent, ev, r.key)
}

// tune replays every grid point's evaluation of a tune request.
func (rp *replayer) tune(req, parent int, r *request, body []byte) error {
	var resp pipeline.TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	rp.tunes++
	e := r.tune.Eval
	for _, res := range resp.Results {
		rp.points++
		if res.Error != "" {
			rp.infeasible++
			continue
		}
		ev := &pipeline.MeasuredEvaluator{Trials: e.Trials, Fluct: e.Fluct, Seed: e.Seed, Transient: true}
		switch e.Backend {
		case "gort":
			ev.Backend = exec.Goroutine{}
		case "csim":
			ev.Backend = exec.Calibrated{Model: tuneCostModel}
		}
		o := core.Options{Processors: res.Processors, CommCost: res.CommCost, Grain: res.Grain}
		if o.Grain <= 1 {
			o.Grain = 0
		}
		if err := rp.evaluate(req, parent, ev, pipeline.PlanKey(r.loop.g.Fingerprint(), o, r.n)); err != nil {
			return err
		}
	}
	return nil
}

// evaluate replays one measured evaluation of the server's plan under
// key: (*Pipeline).Evaluate, the backend's RunTrials inside it, and one
// pass of the execution layer beneath (a simulated-machine run, or a
// goroutine-runtime run plus the sequential interpretation it is checked
// against).
func (rp *replayer) evaluate(req, parent int, ev *pipeline.MeasuredEvaluator, key string) error {
	p := rp.plans[key]
	if p == nil {
		return fmt.Errorf("replay: no plan seen for key %s", key)
	}
	var err error
	evalSpan := rp.tr.timed("pipeline.tune.eval", parent, req, true, func() { _, err = rp.eval.Evaluate(ev, p) })
	if err != nil {
		return err
	}
	be := ev.Backend
	if be == nil {
		be = exec.Sim{}
	}
	g, progs, n, grain := p.Schedule.Graph, p.Programs, p.Iterations, p.Opts.Grain
	cfg := exec.TrialConfig{Trials: ev.EffectiveTrials(), Fluct: ev.Fluct, Seed: ev.Seed, Grain: grain}
	trials := rp.tr.timed("exec."+be.Name()+".run_trials", evalSpan.ID, req, true, func() { _, err = be.RunTrials(g, progs, n, cfg) })
	rp.tr.setValue(trials.ID, float64(cfg.Trials))
	if err != nil {
		return err
	}
	if be.Name() != "gort" {
		mcfg := machine.Config{Fluct: ev.Fluct, Seed: machine.TrialSeed(ev.Seed, 0), Grain: grain}
		rp.tr.probe("machine.run", trials.ID, req, 0, func() { _, err = machine.Run(g, progs, mcfg) })
		return err
	}
	var runner *mimdrt.Runner
	if grain > 1 {
		runner = mimdrt.NewChunkedRunner(g, progs, mimdrt.MixSemantics{}, grain, n)
	} else {
		runner = mimdrt.NewRunner(g, progs, mimdrt.MixSemantics{})
	}
	defer runner.Close()
	var got map[graph.InstanceID]float64
	rp.tr.probe("mimdrt.run", trials.ID, req, float64(n), func() { got, err = runner.Run() })
	if err != nil {
		return err
	}
	var want map[graph.InstanceID]float64
	rp.tr.probe("mimdrt.sequential", trials.ID, req, float64(n), func() { want = mimdrt.Sequential(g, mimdrt.MixSemantics{}, n) })
	for id, w := range want {
		if v, ok := got[id]; !ok || v != w {
			rp.valueErrors++
		}
	}
	if len(got) != len(want) {
		rp.valueErrors++
	}
	return nil
}
