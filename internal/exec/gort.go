package exec

import (
	"fmt"
	"sync"
	"time"

	"mimdloop/internal/graph"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/program"
)

// Goroutine ("gort") executes programs for real on the
// goroutine-per-processor runtime of internal/mimdrt: one goroutine per
// simulated processor, channel messaging, each processor's values in its
// own dense slots. Each trial is one timed wall-clock pass over a reused
// mimdrt.Runner (the program set is wired and the goroutines and link
// channels are set up once, so trials measure execution rather than
// spawning), and after every trial each processor's computed values are
// checked against the sequential interpretation's table — a measurement
// that also silently mis-executed would be worse than no measurement.
//
// Makespans are wall-clock nanoseconds; the sequential baseline is a
// timed mimdrt.SequentialTable pass over the same semantics. Unlike the sim
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
	// Grain-chunked program sets run in chunk space; a chunk COMPUTE
	// expands to ascending real iterations over the original graph, so
	// the check against the sequential table is the same at every grain.
	// NewChunkedRunner is NewRunner for grain <= 1.
	runner := mimdrt.NewChunkedRunner(g, progs, mimdrt.MixSemantics{}, cfg.Grain, iterations)
	defer runner.Close()
	ts := &TrialStats{
		Backend:    "gort",
		Trials:     cfg.Trials,
		Makespans:  make([]float64, 0, cfg.Trials),
		Sequential: seq,
		Messages:   program.Summarize(progs).Sends,
	}
	for t := 0; t < cfg.Trials; t++ {
		t0 := time.Now()
		err := runner.Pass()
		d := float64(time.Since(t0).Nanoseconds())
		if err == nil {
			err = runner.Check(want)
		}
		if err != nil {
			return nil, fmt.Errorf("exec: gort trial %d: %w", t, err)
		}
		ts.Makespans = append(ts.Makespans, d)
	}
	return ts, nil
}

// seqBaselines memoizes timed sequential interpretations keyed by
// (graph content, iterations). A tune evaluates one such pair across its
// whole grid, so without memoization every grid point would re-run two
// full sequential passes — half the measured work — and, worse, each
// point's Sp would divide by its own independently-jittered baseline,
// making identical plans score differently for baseline-noise reasons
// alone. The key is the graph's fingerprint, not its pointer: a plan
// decoded from a store brings its own copy of the graph and must share
// the baseline of the plan it was encoded from. MixSemantics values
// depend only on what the fingerprint hashes — graph.New orders each
// node's incoming edges by (source, distance), and two edges that tie
// there read the same value.
// The map is capped (interleaved workloads, e.g. calibration probes
// racing serving traffic, stay bounded) and a timed baseline is a
// host-load-dependent measurement, so ResetSequentialBaselines exists
// for callers — the calibrator above all — that must not fit against
// stale timings.
const seqBaselineCap = 16

type seqKey struct {
	fingerprint string
	iters       int
}

type seqEntry struct {
	dur  float64
	vals []float64 // mimdrt.SequentialTable's
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

// sequentialBaseline returns the timed duration and ground-truth table
// of the sequential interpretation for (g, iterations), computing them
// once per distinct pair (warm-up pass first, then the timed pass).
func sequentialBaseline(g *graph.Graph, iterations int) (float64, []float64) {
	key := seqKey{g.Fingerprint(), iterations}
	seqBaselines.Lock()
	defer seqBaselines.Unlock()
	if e, ok := seqBaselines.entries[key]; ok {
		return e.dur, e.vals
	}
	sem := mimdrt.MixSemantics{}
	want := mimdrt.SequentialTable(g, sem, iterations)
	t0 := time.Now()
	mimdrt.SequentialTable(g, sem, iterations)
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
