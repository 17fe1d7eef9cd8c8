package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mimdloop/internal/pipeline"
)

// The traced run replays a fixed prefix of each workload's seeded
// request sequence serially, once untraced and once traced, and reports
// the per-layer metrics.
const (
	traceColdRequests = 120
	traceZipfRequests = 2000
	traceTuneCycles   = 2
	// traceOpenLoop is the open-loop phase at zipf_serve's fixed rate that
	// measures the generator (bench.conn_wait_ms, bench.late_ms).
	traceOpenLoop = 3 * time.Second
	// traceWait bounds how long the client waits for the handler wrapper
	// to record a request's span.
	traceWait = 10 * time.Second
)

// traceWork is one workload's traced replay.
type traceWork struct {
	reqs    []*request
	prepare func(dir string) error
	corpus  []pipeline.ScheduleRequest
	zipf    *zipfSeq
}

func traceWorkload(cfg config) (*traceWork, error) {
	w := &traceWork{prepare: func(string) error { return nil }}
	switch cfg.workload {
	case coldSchedule:
		seq, err := newColdSeq(cfg.seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < traceColdRequests; i++ {
			r, err := seq.at(i)
			if err != nil {
				return nil, err
			}
			w.reqs = append(w.reqs, r)
		}
	case zipfServe:
		seq, err := newZipfSeq(cfg.seed, traceZipfRequests+phaseCount(zipfRate, traceOpenLoop))
		if err != nil {
			return nil, err
		}
		w.reqs = seq.reqs[:traceZipfRequests]
		w.prepare = func(dir string) error { return prepareZipf(dir, seq) }
		w.corpus = seq.corpus()
		w.zipf = seq
	case measuredTune:
		seq, err := newTuneSeq(cfg.seed)
		if err != nil {
			return nil, err
		}
		for i := 0; i < traceTuneCycles*len(seq.cycle); i++ {
			w.reqs = append(w.reqs, seq.at(i))
		}
		w.prepare = prepareTune
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return w, nil
}

// serialPass sends the requests one at a time and returns each one's
// latency. With a replayer, each request is traced: its client span
// parents the handler span, and the library replay runs after it.
func serialPass(st *stack, c *conn, reqs []*request, rp *replayer) ([]time.Duration, int, error) {
	lat := make([]time.Duration, len(reqs))
	failed := 0
	for i, r := range reqs {
		reqID := 0
		if rp != nil {
			reqID = i + 1
		}
		t0 := time.Now()
		status, body, err := c.do(r.method, st.url+r.path, r.body, reqID)
		end := time.Now()
		lat[i] = end.Sub(t0)
		if err != nil || status != http.StatusOK {
			failed++
		}
		if rp == nil {
			continue
		}
		handler, err := rp.tr.handlerDone()
		if err != nil {
			return nil, 0, err
		}
		root := rp.tr.add(span{Req: reqID, Name: "bench.request", Start: rp.tr.ns(t0), End: rp.tr.ns(end), Value: float64(len(body))})
		rp.tr.setParent(handler, root.ID)
		if status == http.StatusOK {
			if err := rp.replay(reqID, handler, r, body); err != nil {
				return nil, 0, fmt.Errorf("replay of request %d (%s %s): %w", reqID, r.kind, r.loop.name, err)
			}
		}
	}
	return lat, failed, nil
}

func runTraced(cfg config) (*result, error) {
	w, err := traceWorkload(cfg)
	if err != nil {
		return nil, err
	}
	c := newConn()
	defer c.close()

	// Untraced pass: the baseline of the tracing overhead, then (on
	// zipf_serve) a short open loop for the generator's own metrics.
	dir, err := cfg.subdir("untraced")
	if err != nil {
		return nil, err
	}
	if err := w.prepare(dir); err != nil {
		return nil, err
	}
	st, err := openStack(dir, w.corpus, nil)
	if err != nil {
		return nil, err
	}
	untraced, failedUntraced, err := serialPass(st, c, w.reqs, nil)
	if err != nil {
		return nil, err
	}
	var gen phaseResult
	var errs []error
	if w.zipf != nil {
		run := newZipfRun(w.zipf, st.url, w.zipf.sample(len(w.reqs), len(w.zipf.reqs)))
		c2 := newConn()
		gen = runPhase([]*conn{c, c2}, rand.New(rand.NewSource(cfg.seed)), zipfRate, phaseCount(zipfRate, traceOpenLoop), len(w.reqs), run.send)
		c2.close()
		errs = run.verify()
		for _, s := range gen.samples {
			if s.err != nil {
				errs = append(errs, s.err)
			}
		}
	}
	if err := st.close(); err != nil {
		return nil, err
	}

	// Traced pass over a fresh, identically prepared directory.
	if dir, err = cfg.subdir("traced"); err != nil {
		return nil, err
	}
	if err := w.prepare(dir); err != nil {
		return nil, err
	}
	tr := newTracer()
	st, err = openStack(dir, w.corpus, tr)
	if err != nil {
		return nil, err
	}
	rp := newReplayer(tr, st.disk)
	if err := rp.replay(0, 0, &request{kind: "setup"}, nil); err != nil {
		return nil, err
	}
	traced, failedTraced, err := serialPass(st, c, w.reqs, rp)
	if err != nil {
		return nil, err
	}
	stats, err := st.stats(c)
	if err != nil {
		return nil, err
	}
	if _, err := tr.handlerDone(); err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}

	rep := newTraceReport(cfg.workload, tr.spans, len(w.reqs))
	m := rep.metrics(rp, stats, st, gen)
	rep.Overhead = (sumDur(traced) - sumDur(untraced)) / sumDur(untraced) * 100
	rep.shares(w.reqs, stats)
	rep.stressMap()
	rep.print()
	if err := rep.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed)), tr.spans); err != nil {
		return nil, err
	}
	if err := checkErrors(errs); err != nil {
		fmt.Printf("%s traced: check failed: %v\n", cfg.workload, err)
	}
	holds := true
	for _, ok := range rep.Stress {
		holds = holds && ok
	}
	failed := failedUntraced + failedTraced + gen.failed
	return &result{
		Correct:   failed == 0 && len(errs) == 0 && rp.valueErrors == 0 && holds,
		Attempted: 2*len(w.reqs) + len(gen.samples),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

func sumDur(ds []time.Duration) float64 {
	t := 0.0
	for _, d := range ds {
		t += float64(d)
	}
	return t
}

// traceReport aggregates the spans of one traced run.
type traceReport struct {
	Workload string `json:"workload"`
	Requests int    `json:"requests"`
	// Overhead is the tracing overhead: traced minus untraced end-to-end
	// time of the same serial requests, in percent of the untraced.
	Overhead float64 `json:"tracing_overhead_pct"`
	// Layers holds each span name's calls, total and self time over the
	// traced requests; Setup the same for the traced stack's set-up
	// (store.Open, warm-up reads).
	Layers map[string]*layerTime `json:"layers"`
	Setup  map[string]*layerTime `json:"setup"`
	// Shares are the measured traffic shares and compute ratio.
	Shares map[string]float64 `json:"shares"`
	// Stress holds the stress-map checks and whether each held; Leader
	// is the module with the most self time.
	Stress map[string]bool `json:"stress_map"`
	Leader string          `json:"leading_module"`

	byName map[string][]span
	self   map[int]time.Duration
	// handlerTotal is the summed handler time: the traced server time.
	handlerTotal time.Duration
}

type layerTime struct {
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func newTraceReport(workload string, spans []span, requests int) *traceReport {
	r := &traceReport{
		Workload: workload, Requests: requests,
		Layers: make(map[string]*layerTime), Setup: make(map[string]*layerTime),
		Shares: make(map[string]float64), Stress: make(map[string]bool),
		byName: make(map[string][]span), self: selfTimes(spans),
	}
	for _, s := range spans {
		if s.Name == "pipeline.server.handler" && s.Req == 0 {
			continue // the closing GET /v1/stats, not a traced request
		}
		r.byName[s.Name] = append(r.byName[s.Name], s)
		table := r.Layers
		if s.Req == 0 {
			table = r.Setup
		}
		lt := table[s.Name]
		if lt == nil {
			lt = &layerTime{}
			table[s.Name] = lt
		}
		lt.Calls++
		lt.TotalMs += ms(s.dur())
		lt.SelfMs += ms(r.self[s.ID])
		if s.Name == "pipeline.server.handler" {
			r.handlerTotal += s.dur()
		}
	}
	return r
}

// meanOf is the mean over name's spans of f, 0 without spans.
func (r *traceReport) meanOf(name string, f func(s span) float64) float64 {
	ss := r.byName[name]
	if len(ss) == 0 {
		return 0
	}
	t := 0.0
	for _, s := range ss {
		t += f(s)
	}
	return t / float64(len(ss))
}

func (r *traceReport) meanDur(name string, unit time.Duration) float64 {
	return r.meanOf(name, func(s span) float64 { return float64(s.dur()) / float64(unit) })
}

// trialUs is a backend's RunTrials time per trial, in µs.
func (r *traceReport) trialUs(backend string) float64 {
	var d, n float64
	for _, s := range r.byName["exec."+backend+".run_trials"] {
		d += float64(s.dur())
		n += s.Value
	}
	if n == 0 {
		return 0
	}
	return d / n / float64(time.Microsecond)
}

// requestsWith counts traced requests with a span of name whose value
// passes keep.
func (r *traceReport) requestsWith(name string, keep func(s span) bool) int {
	seen := make(map[int]bool)
	for _, s := range r.byName[name] {
		if s.Req > 0 && keep(s) {
			seen[s.Req] = true
		}
	}
	return len(seen)
}

func always(span) bool { return true }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics computes the per-layer metrics.
func (r *traceReport) metrics(rp *replayer, stats serverStats, st *stack, gen phaseResult) map[string]metric {
	n := float64(r.Requests)
	handlerMs := make(map[int]float64)
	for _, s := range r.byName["pipeline.server.handler"] {
		handlerMs[s.Req] = ms(s.dur())
	}
	mem, _ := stats.Store.Tier("memory")
	tiered, _ := stats.Store.Tier("tiered")
	m := map[string]metric{
		"pipeline.server.handler_ms":     {r.meanDur("pipeline.server.handler", time.Millisecond), "ms"},
		"pipeline.server.outside_ms":     {r.meanOf("bench.request", func(s span) float64 { return ms(s.dur()) - handlerMs[s.Req] }), "ms"},
		"pipeline.server.reply_kb":       {r.meanOf("bench.request", func(s span) float64 { return s.Value / 1024 }), "KB"},
		"pipeline.server.streamed_ratio": {ratio(float64(stats.Streamed), n), "ratio"},
		"pipeline.key_us":                {r.meanDur("pipeline.key", time.Microsecond), "us"},
		"loopir.compile_us":              {r.meanDur("loopir.compile", time.Microsecond), "us"},
		"classify.partition_us":          {r.meanDur("classify.partition", time.Microsecond), "us"},
		"core.cyclic_sched_ms":           {r.meanDur("core.cyclic_sched", time.Millisecond), "ms"},
		"core.expand_ms":                 {r.meanDur("core.expand", time.Millisecond), "ms"},
		"core.compose_ms":                {r.meanOf("core.schedule_loop", func(s span) float64 { return ms(r.self[s.ID]) }), "ms"},
		"core.placements":                {ratio(float64(rp.placements), float64(rp.plansBuilt)), "count"},
		"core.fallback_ratio":            {ratio(float64(rp.fallbacks), float64(rp.plansBuilt)), "ratio"},
		"program.lower_ms":               {r.meanDur("program.lower", time.Millisecond), "ms"},
		"program.instrs":                 {ratio(rp.instrs, float64(rp.plansBuilt)), "count"},
		"program.sends_per_iter":         {ratio(rp.sendsPerIter, float64(rp.plansBuilt)), "count"},
		"plan.render_ms":                 {r.meanDur("plan.render", time.Millisecond), "ms"},
		"plan.schedule_kb":               {r.meanOf("plan.render", func(s span) float64 { return s.Value / 1024 }), "KB"},
		"pipeline.codec.encode_ms":       {r.meanDur("pipeline.codec.encode", time.Millisecond), "ms"},
		"pipeline.codec.decode_ms":       {r.meanDur("pipeline.codec.decode", time.Millisecond), "ms"},
		"pipeline.codec.record_kb":       {r.meanOf("pipeline.codec.decode", func(s span) float64 { return s.Value / 1024 }), "KB"},
		"pipeline.mem.get_us":            {r.meanDur("pipeline.mem.get", time.Microsecond), "us"},
		"pipeline.mem.hit_ratio":         {r.meanOf("pipeline.mem.get", func(s span) float64 { return s.Value }), "ratio"},
		"pipeline.mem.evictions":         {float64(mem.Evictions), "count"},
		"pipeline.compute_ratio":         {ratio(float64(stats.Computes), n), "ratio"},
		"pipeline.warmup_s":              {st.warmTime.Seconds(), "s"},
		"pipeline.tune.eval_ms":          {r.meanDur("pipeline.tune.eval", time.Millisecond), "ms"},
		"pipeline.tune.points":           {ratio(float64(rp.points), float64(rp.tunes)), "count"},
		"pipeline.tune.infeasible_ratio": {ratio(float64(rp.infeasible), float64(rp.points)), "ratio"},
		"store.disk.open_ms":             {r.meanDur("store.disk.open", time.Millisecond), "ms"},
		"store.disk.get_ms":              {r.meanDur("store.disk.get", time.Millisecond), "ms"},
		"store.disk.read_ratio":          {ratio(float64(r.requestsWith("store.disk.get", func(s span) bool { return s.Value > 0 })), n), "ratio"},
		"store.disk.put_ms":              {r.meanDur("store.disk.put", time.Millisecond), "ms"},
		"store.disk.puts":                {float64(len(r.byName["store.disk.put"])), "count"},
		"store.disk.record_ms":           {r.meanDur("store.disk.record", time.Millisecond), "ms"},
		"store.tiered.promotes":          {float64(tiered.Promotes), "count"},
		"exec.sim.trial_us":              {r.trialUs("sim"), "us"},
		"exec.csim.trial_us":             {r.trialUs("csim"), "us"},
		"exec.gort.trial_us":             {r.trialUs("gort"), "us"},
		"exec.gort.seq_baseline_ms":      {r.meanDur("mimdrt.sequential", time.Millisecond), "ms"},
		"exec.trials":                    {float64(stats.Evals.Trials), "count"},
		"machine.run_us":                 {r.meanDur("machine.run", time.Microsecond), "us"},
		"mimdrt.run_ns_per_iter":         {r.meanOf("mimdrt.run", func(s span) float64 { return float64(s.dur()) / s.Value }), "ns/iter"},
		"mimdrt.value_errors":            {float64(rp.valueErrors), "count"},
		"bench.conn_wait_ms":             {gen.waitMean, "ms"},
		"bench.late_ms":                  {gen.lateMean, "ms"},
	}
	return m
}

// shares measures the traffic mix the traced requests produced.
func (r *traceReport) shares(reqs []*request, stats serverStats) {
	n := float64(r.Requests)
	records := 0
	for _, q := range reqs {
		if q.kind == "record" {
			records++
		}
	}
	r.Shares["mem_hit"] = r.meanOf("pipeline.mem.get", func(s span) float64 { return s.Value })
	r.Shares["disk_read"] = ratio(float64(r.requestsWith("store.disk.get", func(s span) bool { return s.Value > 0 })), n)
	r.Shares["cold"] = ratio(float64(r.requestsWith("core.schedule_loop", always)), n)
	r.Shares["streamed"] = ratio(float64(stats.Streamed), n)
	r.Shares["record_fetch"] = ratio(float64(records), n)
	r.Shares["compute_ratio"] = ratio(float64(stats.Computes), n)
}

// selfOf sums the self time of the traced requests' spans whose name
// has one of the prefixes.
func (r *traceReport) selfOf(prefixes ...string) time.Duration {
	var t time.Duration
	for name, ss := range r.byName {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				for _, s := range ss {
					if s.Req > 0 {
						t += r.self[s.ID]
					}
				}
				break
			}
		}
	}
	return t
}

// modules are the layers the leading-module line ranks by self time.
var modules = []string{"loopir.", "classify.", "core.", "program.", "plan.", "pipeline.codec.", "pipeline.mem.", "pipeline.key", "store.", "exec.", "machine.", "mimdrt."}

// stressMap checks which layers carry each workload, as NOTES.md states,
// and names the module with the most self time. The checks are part of
// the run's correctness; the leading module is reported only, since a
// faster leader may rightly fall behind another.
func (r *traceReport) stressMap() {
	for _, m := range modules {
		if t := r.selfOf(m); t > 0 && (r.Leader == "" || t > r.selfOf(r.Leader)) {
			r.Leader = m
		}
	}
	execLayers := r.selfOf("exec.", "machine.", "mimdrt.")
	decode := len(r.byName["pipeline.codec.decode"])
	switch r.Workload {
	case coldSchedule:
		build := r.selfOf("core.", "program.", "plan.", "pipeline.codec.encode", "store.disk.put")
		r.Stress["core, program, plan, encode and disk-put carry most of the handler time"] = build*2 > r.handlerTotal
		r.Stress["decode is zero"] = decode == 0
		r.Stress["execution layers are zero"] = execLayers == 0
	case zipfServe:
		r.Stress["decode is nonzero"] = decode > 0
		r.Stress["execution layers are zero"] = execLayers == 0
	case measuredTune:
		r.Stress["execution layers are nonzero"] = execLayers > 0
	}
}

func (r *traceReport) print() {
	names := make([]string, 0, len(r.Layers))
	for name := range r.Layers {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return r.Layers[names[a]].SelfMs > r.Layers[names[b]].SelfMs })
	fmt.Printf("%s traced: %d requests, tracing overhead %.1f%% of untraced end-to-end time\n", r.Workload, r.Requests, r.Overhead)
	for _, name := range names {
		lt := r.Layers[name]
		fmt.Printf("%s traced: %-28s %6d calls  total %10.2f ms  self %10.2f ms (%5.1f%% of handler time)\n",
			r.Workload, name, lt.Calls, lt.TotalMs, lt.SelfMs, 100*lt.SelfMs/max(ms(r.handlerTotal), 1e-9))
	}
	for name, lt := range r.Setup {
		fmt.Printf("%s traced: set-up %-21s %6d calls  total %10.2f ms\n", r.Workload, name, lt.Calls, lt.TotalMs)
	}
	keys := make([]string, 0, len(r.Shares))
	for k := range r.Shares {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s traced: share %-14s %.4f\n", r.Workload, k, r.Shares[k])
	}
	if r.Leader != "" {
		fmt.Printf("%s traced: leading module by self time: %s (%.2f ms)\n", r.Workload, strings.TrimSuffix(r.Leader, "."), ms(r.selfOf(r.Leader)))
	}
	checks := make([]string, 0, len(r.Stress))
	for k := range r.Stress {
		checks = append(checks, k)
	}
	sort.Strings(checks)
	for _, k := range checks {
		verdict := "holds"
		if !r.Stress[k] {
			verdict = "DOES NOT HOLD"
		}
		fmt.Printf("%s traced: stress map: %s: %s\n", r.Workload, k, verdict)
	}
}

// write saves the report with every span, for offline analysis.
func (r *traceReport) write(path string, spans []span) error {
	data, err := json.Marshal(struct {
		*traceReport
		Spans []span `json:"spans"`
	}{r, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
