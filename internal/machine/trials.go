package machine

import (
	"fmt"

	"mimdloop/internal/graph"
	"mimdloop/internal/program"
)

// TrialStats aggregates repeated simulated runs of one program set under
// communication fluctuation: Table 1's measurement protocol packaged as a
// reusable primitive. Each trial re-runs the same programs under a
// distinct, deterministically derived fluctuation seed, so the spread
// reflects how robust the schedule is to the communication estimate being
// wrong — not random noise: the same (config, trials) always yields the
// same stats.
type TrialStats struct {
	// Trials is the number of runs aggregated.
	Trials int `json:"trials"`
	// MakespanMin/Mean/Max spread the finishing cycle over the trials.
	MakespanMin  int     `json:"makespan_min"`
	MakespanMax  int     `json:"makespan_max"`
	MakespanMean float64 `json:"makespan_mean"`
	// Utilization is the mean busy/(makespan*procs) over the trials.
	Utilization float64 `json:"utilization"`
	// Messages is the per-trial message count (identical every trial:
	// fluctuation changes timing, never routing).
	Messages int `json:"messages"`
	// Makespans are the per-trial samples in run order. Min/Mean/Max
	// above digest them; callers ranking by other statistics (p95,
	// spread) read the raw distribution.
	Makespans []int `json:"makespans,omitempty"`
}

// TrialSeed derives trial t's fluctuation seed from the base seed. Trial
// 0 uses base unchanged — a 1-trial run is byte-identical to a plain Run
// with the same Config — and later trials mix the trial index through
// FNV-64a so neighbouring bases do not produce overlapping streams.
func TrialSeed(base int64, trial int) int64 {
	if trial == 0 {
		return base
	}
	return int64(fnvWord(fnvWord(fnvOffset, base), int64(trial)))
}

// RunTrials executes progs `trials` times, trial t under cfg with its
// seed replaced by TrialSeed(cfg.Seed, t), and aggregates the spread.
// The program set is wired once, and its trials reuse one run state.
// Every run is independent and deterministic, so RunTrials is safe to
// call concurrently from many goroutines (concurrent plan evaluations
// share no state).
func RunTrials(g *graph.Graph, progs []program.Program, cfg Config, trials int) (*TrialStats, error) {
	if trials < 1 {
		return nil, fmt.Errorf("machine: trial count %d, want >= 1", trials)
	}
	s, err := wire(g, progs)
	if err != nil {
		return nil, err
	}
	stats := &Stats{PerProc: make([]ProcStats, len(progs))}
	ts := &TrialStats{Trials: trials, Makespans: make([]int, 0, trials)}
	sumMakespan, sumUtil := 0, 0.0
	for t := 0; t < trials; t++ {
		c := cfg
		c.Seed = TrialSeed(cfg.Seed, t)
		if err := s.run(c, stats); err != nil {
			return nil, fmt.Errorf("machine: trial %d: %w", t, err)
		}
		ts.Makespans = append(ts.Makespans, stats.Makespan)
		if t == 0 || stats.Makespan < ts.MakespanMin {
			ts.MakespanMin = stats.Makespan
		}
		if stats.Makespan > ts.MakespanMax {
			ts.MakespanMax = stats.Makespan
		}
		sumMakespan += stats.Makespan
		sumUtil += stats.Utilization()
		ts.Messages = stats.Messages
	}
	ts.MakespanMean = float64(sumMakespan) / float64(trials)
	ts.Utilization = sumUtil / float64(trials)
	return ts, nil
}
