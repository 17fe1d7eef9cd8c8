package exec

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mimdloop/internal/graph"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/program"
)

// Goroutine ("gort") executes programs for real on the
// goroutine-per-processor runtime of internal/mimdrt: one goroutine per
// simulated processor, channel messaging, values tagged with their
// (node, iteration) identity. Each trial is one timed wall-clock pass
// over a reused mimdrt.Runner (the goroutines and link channels are set
// up once, so trials measure execution rather than spawning), and every
// trial's computed values are cross-checked against the sequential
// interpretation — a measurement that also silently mis-executed would
// be worse than no measurement.
//
// Makespans are wall-clock nanoseconds; the sequential baseline is a
// timed mimdrt.Sequential pass over the same semantics. Unlike the sim
// backend the numbers are noisy (scheduler jitter, cache state), which
// is exactly why trial spreads and spread-aware objectives exist.
type Goroutine struct{}

// Name implements Backend.
func (Goroutine) Name() string { return "gort" }

// Deterministic implements Backend: wall-clock measurements never
// replay exactly.
func (Goroutine) Deterministic() bool { return false }

// EffectiveTrials implements Backend: real executions always differ, so
// a request's trial count is never collapsed (fluctuation is a sim
// concept — the goroutine runtime's variation is physical).
func (Goroutine) EffectiveTrials(trials, fluct int) int { return trials }

// RunTrials implements Backend.
func (Goroutine) RunTrials(g *graph.Graph, progs []program.Program, iterations int, cfg TrialConfig) (*TrialStats, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("exec: gort trial count %d, want >= 1", cfg.Trials)
	}
	if iterations <= 0 {
		return nil, fmt.Errorf("exec: gort execution of a %d-iteration program set", iterations)
	}
	seq, want := sequentialBaseline(g, iterations)
	// Grain-chunked program sets run the chunk-space interpreter; it
	// computes the same real-iteration values (chunk COMPUTEs expand to
	// ascending real iterations over the original graph), so the value
	// cross-check against the sequential baseline is shared unchanged.
	// NewChunkedRunner returns the plain per-iteration runner for grain <= 1.
	runner := mimdrt.NewChunkedRunner(g, progs, mimdrt.MixSemantics{}, cfg.Grain, iterations)
	defer runner.Close()
	ts := &TrialStats{
		Backend:    "gort",
		Trials:     cfg.Trials,
		Makespans:  make([]float64, 0, cfg.Trials),
		Sequential: seq,
		Messages:   countSends(progs),
	}
	for t := 0; t < cfg.Trials; t++ {
		t0 := time.Now()
		got, err := runner.Run()
		d := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, fmt.Errorf("exec: gort trial %d: %w", t, err)
		}
		if err := checkValues(g, got, want); err != nil {
			return nil, fmt.Errorf("exec: gort trial %d: %w", t, err)
		}
		ts.Makespans = append(ts.Makespans, d)
	}
	return ts, nil
}

// seqBaselines memoizes timed sequential interpretations keyed by
// (graph, iterations). A tune evaluates one such pair across its whole
// grid, so without memoization every grid point would re-run two full
// sequential passes — half the measured work — and, worse, each point's
// Sp would divide by its own independently-jittered baseline, making
// identical plans score differently for baseline-noise reasons alone.
// The map is capped (interleaved workloads, e.g. calibration probes
// racing serving traffic, stay bounded) and a timed baseline is a
// host-load-dependent measurement, so ResetSequentialBaselines exists
// for callers — the calibrator above all — that must not fit against
// stale timings.
const seqBaselineCap = 16

type seqKey struct {
	g     *graph.Graph
	iters int
}

type seqEntry struct {
	dur  float64
	vals map[graph.InstanceID]float64
}

var seqBaselines struct {
	sync.Mutex
	entries map[seqKey]seqEntry
}

// ResetSequentialBaselines drops every memoized timed sequential
// baseline, forcing the next RunTrials per (graph, iterations) pair to
// re-measure. Calibration refreshes call this first so fitted profiles
// never inherit timings from a differently-loaded moment of the host.
func ResetSequentialBaselines() {
	seqBaselines.Lock()
	seqBaselines.entries = nil
	seqBaselines.Unlock()
}

// sequentialBaseline returns the timed duration and ground-truth values
// of the sequential interpretation for (g, iterations), computing them
// once per distinct pair (warm-up pass first, then the timed pass).
func sequentialBaseline(g *graph.Graph, iterations int) (float64, map[graph.InstanceID]float64) {
	key := seqKey{g, iterations}
	seqBaselines.Lock()
	defer seqBaselines.Unlock()
	if e, ok := seqBaselines.entries[key]; ok {
		return e.dur, e.vals
	}
	sem := mimdrt.MixSemantics{}
	want := mimdrt.Sequential(g, sem, iterations)
	t0 := time.Now()
	mimdrt.Sequential(g, sem, iterations)
	dur := float64(time.Since(t0).Nanoseconds())
	if len(seqBaselines.entries) >= seqBaselineCap {
		seqBaselines.entries = nil // cheap full reset; correctness is unaffected
	}
	if seqBaselines.entries == nil {
		seqBaselines.entries = make(map[seqKey]seqEntry, seqBaselineCap)
	}
	seqBaselines.entries[key] = seqEntry{dur, want}
	return dur, want
}

// countSends totals the cross-processor messages one pass sends.
func countSends(progs []program.Program) int {
	n := 0
	for _, prog := range progs {
		for _, in := range prog.Instrs {
			if in.Kind == program.OpSend {
				n++
			}
		}
	}
	return n
}

// checkValues asserts the concurrent execution computed exactly the
// sequential interpretation's values: same instance set, same numbers to
// relative 1e-9. Any misrouted, missing or duplicated operand fails.
func checkValues(g *graph.Graph, got, want map[graph.InstanceID]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("computed %d instance values, sequential computed %d", len(got), len(want))
	}
	for id, w := range want {
		v, ok := got[id]
		if !ok {
			return fmt.Errorf("instance (%s, iter %d) never computed", g.Nodes[id.Node].Name, id.Iter)
		}
		if math.Abs(v-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("instance (%s, iter %d) = %v, sequential %v",
				g.Nodes[id.Node].Name, id.Iter, v, w)
		}
	}
	return nil
}
