package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"mimdloop/internal/calib"
	"mimdloop/internal/exec"
	"mimdloop/internal/pipeline"
)

// measured_tune: a closed loop on 1 connection (concurrent gort trials
// would time each other's CPU contention) through a fixed cycle of
// measured tunes and simulate probes. The cycle repeats, so from the
// second pass on every plan is a cache hit and the execution layers do
// nearly all the work.
const (
	tuneConns = 1
	// tuneSimTrials is the sim backend's trial count per grid point; at
	// fluctuation 1 (none) the backend collapses it to one trial.
	tuneSimTrials  = 3
	tuneGortTrials = 2
	tuneIterations = 100
	// gort points run the goroutine runtime for real, so they take fewer
	// iterations than the simulated ones.
	tuneGortIterations  = 60
	tuneGrainIterations = 240
	tuneCsimLoops       = 8
)

// tuneProcs is the processor axis of the sim and csim tunes, which share
// their plans with the probes: with the gort tunes' plans the cycle's
// working set stays within the memory tier, so later passes are memory
// hits and the execution layers do the work.
var tuneProcs = []int{2, 4, 8}

// tuneCostModel is the csim backend's cost model: fixed by the
// benchmark, never fitted live, so csim results repeat exactly.
var tuneCostModel = exec.CostModel{
	ComputeNsPerCycle: 40,
	CommNsPerMessage:  900,
	IterOverheadNs:    300,
	SeqNsPerCycle:     30,
}

// tuneSeq is the measured_tune cycle of one seed.
type tuneSeq struct {
	seed  int64
	cycle []*request
}

func newTuneSeq(seed int64) (*tuneSeq, error) {
	table1, err := table1Loops()
	if err != nil {
		return nil, err
	}
	figs, err := figureLoops()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var cycle []*request
	add := func(l loop, t pipeline.TuneRequest, deterministic bool) error {
		t.Source = l.src
		body, err := json.Marshal(&t)
		if err != nil {
			return err
		}
		cycle = append(cycle, &request{kind: "tune", method: "POST", path: "/v1/tune", body: body, loop: l, n: t.Iterations, tune: &t, deterministic: deterministic})
		return nil
	}
	// Sim tunes on every Table 1 loop at the paper's fluctuation levels
	// mm in {1, 3, 5}.
	offset := rng.Intn(3)
	for j, l := range table1 {
		err := add(l, pipeline.TuneRequest{
			Processors: tuneProcs, CommCosts: []int{2}, Iterations: tuneIterations,
			Eval: &pipeline.EvalRequest{Mode: "measured", Backend: "sim", Trials: tuneSimTrials,
				Fluct: []int{1, 3, 5}[(j+offset)%3], Seed: seed*100 + int64(j)},
		}, true)
		if err != nil {
			return nil, err
		}
	}
	// csim tunes, scaled by the fixed cost model.
	for _, j := range rng.Perm(len(table1))[:tuneCsimLoops] {
		err := add(table1[j], pipeline.TuneRequest{
			Processors: tuneProcs, CommCosts: []int{2}, Iterations: tuneIterations,
			Eval: &pipeline.EvalRequest{Mode: "measured", Backend: "csim"},
		}, true)
		if err != nil {
			return nil, err
		}
	}
	// gort tunes on the paper figures.
	for _, l := range figs {
		err := add(l, pipeline.TuneRequest{
			Processors: []int{2, 4}, CommCosts: []int{2}, Iterations: tuneGortIterations,
			Eval: &pipeline.EvalRequest{Mode: "measured", Backend: "gort", Trials: tuneGortTrials},
		}, false)
		if err != nil {
			return nil, err
		}
	}
	// gort tunes with a grains axis on stream chains.
	for _, sh := range [][3]int{{2, 4, 1}, {3, 3, 1}, {1, 6, 2}} {
		l, err := streamLoop(sh[0], sh[1], sh[2])
		if err != nil {
			return nil, err
		}
		err = add(l, pipeline.TuneRequest{
			Processors: []int{2}, CommCosts: []int{2}, Grains: []int{0, 4, 16}, Iterations: tuneGrainIterations,
			Eval: &pipeline.EvalRequest{Mode: "measured", Backend: "gort", Trials: tuneGortTrials},
		}, false)
		if err != nil {
			return nil, err
		}
	}
	// /v1/schedule?simulate=1 probes on every Table 1 loop, at two points
	// of its tune grid.
	for j, l := range table1 {
		for _, pr := range []struct{ procs, k, trials, fluct int }{{4, 2, 3, 3}, {8, 2, 1, 5}} {
			r, err := scheduleRequest("probe", l, pr.procs, pr.k, tuneIterations)
			if err != nil {
				return nil, err
			}
			r.path += fmt.Sprintf("?simulate=1&trials=%d&fluct=%d&seed=%d", pr.trials, pr.fluct, seed*100+int64(j))
			r.deterministic = true
			cycle = append(cycle, r)
		}
	}
	rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
	return &tuneSeq{seed: seed, cycle: cycle}, nil
}

func (s *tuneSeq) at(i int) *request { return s.cycle[i%len(s.cycle)] }

// prepareTune writes the fixed csim cost model where `serve -store`
// loads its calibration profile from.
func prepareTune(dir string) error {
	return calib.SaveProfile(calib.ProfilePath(dir), &calib.Profile{
		Model: tuneCostModel, Samples: 12, FitError: 0.1, Probes: 3, Trials: 3, Seed: 1, GoMaxProcs: 2,
		CreatedUnixNs: time.Now().UnixNano(),
	})
}

// tuneRun sends measured_tune requests and checks every reply.
type tuneRun struct {
	seq *tuneSeq
	url string

	mu sync.Mutex
	// first holds the first pass's deterministic rendering of each sim
	// or csim reply, by cycle position; later passes must repeat it.
	first map[int][]byte
	// sp is the winner's measured Sp of each sim tune of the first pass.
	sp map[int]float64
}

func (t *tuneRun) send(c *conn, i int) error {
	r := t.seq.at(i)
	status, body, err := c.do(r.method, t.url+r.path, r.body, 0)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s (%s): status %d: %.200s", r.method, r.path, r.loop.name, status, body)
	}
	det, sp, err := tuneReply(r, body)
	if err != nil || !r.deterministic {
		return err
	}
	pos := i % len(t.seq.cycle)
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, ok := t.first[pos]
	if !ok {
		t.first[pos] = det
		if r.kind == "tune" && r.tune.Eval.Backend == "sim" {
			t.sp[pos] = sp
		}
		return nil
	}
	if !bytes.Equal(prev, det) {
		return fmt.Errorf("%s %s (%s): deterministic reply changed between passes:\n%s\n%s", r.method, r.path, r.loop.name, prev, det)
	}
	return nil
}

// tuneReply checks one measured_tune reply and returns its deterministic
// rendering plus the winner's measured Sp (tunes) or the probe's.
func tuneReply(r *request, body []byte) ([]byte, float64, error) {
	if r.kind == "probe" {
		env, err := parseEnvelope(body)
		if err != nil {
			return nil, 0, err
		}
		if env.Simulated == nil || env.Simulated.Backend != "sim" {
			return nil, 0, fmt.Errorf("%s: simulate probe returned no sim measurement", r.loop.name)
		}
		det, err := json.Marshal(env.Simulated)
		return det, env.Simulated.SpMean, err
	}
	var resp pipeline.TuneResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, 0, fmt.Errorf("%s: decode tune reply: %w", r.loop.name, err)
	}
	if err := checkTuneReply(r, &resp); err != nil {
		return nil, 0, err
	}
	if resp.Backend != r.tune.Eval.Backend {
		return nil, 0, fmt.Errorf("%s: tune ran on backend %q, requested %q", r.loop.name, resp.Backend, r.tune.Eval.Backend)
	}
	det, err := deterministicTune(&resp)
	sp := 0.0
	if m := resp.Best.Measured; m != nil {
		sp = m.SpMean
	}
	return det, sp, err
}

func runTune(cfg config) (*result, error) {
	seq, err := newTuneSeq(cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := cfg.subdir("store")
	if err != nil {
		return nil, err
	}
	if err := prepareTune(dir); err != nil {
		return nil, err
	}
	st, setupS, err := setUp(dir, nil, setupReps)
	if err != nil {
		return nil, err
	}
	run := &tuneRun{seq: seq, url: st.url, first: make(map[int][]byte), sp: make(map[int]float64)}
	conns := []*conn{newConn()}
	// Two full passes at least: the second is what the repeat check and
	// the cache-hit steady state need.
	samples, elapsed := closedLoop(conns, time.Duration(cfg.seconds)*time.Second, 2*len(seq.cycle), math.MaxInt, run.send)
	conns[0].close()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}
	rate, p50, p99, failed := phaseFigures(samples, elapsed)
	var errs []error
	for _, s := range samples {
		if s.err != nil {
			errs = append(errs, s.err)
		}
	}
	if err := checkErrors(errs); err != nil {
		fmt.Printf("measured_tune: check failed: %v\n", err)
	}
	sps := make([]float64, 0, len(run.sp))
	for _, v := range run.sp {
		sps = append(sps, v)
	}
	fmt.Printf("measured_tune: %d requests (%d-request cycle) in %.1fs on %d connection\n",
		len(samples), len(seq.cycle), elapsed.Seconds(), tuneConns)
	byKind := make(map[string][]float64)
	for _, s := range samples {
		r := seq.at(s.idx)
		kind := r.kind
		if r.tune != nil {
			kind += "/" + r.tune.Eval.Backend
		}
		byKind[kind] = append(byKind[kind], ms(s.latency()))
	}
	for kind, lat := range byKind {
		fmt.Printf("measured_tune: %-10s %4d requests, mean %.2f ms, p50 %.2f ms\n", kind, len(lat), mean(lat), median(lat))
	}
	return &result{
		Correct:   len(errs) == 0,
		Attempted: len(samples),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {setupS, "s"},
			"throughput_rps": {rate, "req/s"},
			// The closed loop's completion rate is the highest rate it
			// sustains (see cold_schedule).
			"max_rate_rps":   {rate, "req/s"},
			"latency_p50_ms": {p50, "ms"},
			"latency_p99_ms": {p99, "ms"},
			"plan_sp_pct":    {mean(sps), "%"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}, nil
}
