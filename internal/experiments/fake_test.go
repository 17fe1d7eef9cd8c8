package experiments

import (
	"fmt"

	"mimdloop/internal/exec"
	"mimdloop/internal/graph"
	"mimdloop/internal/program"
)

// fakeBackend stands in for the goroutine runtime in tests: a makespan is
// a fixed cost model applied to the sim run of the same programs, as
// exec.Calibrated computes it, times a noise factor in [1, 1+fakeNoise).
// The noise is a pure function of the program set, the iteration count
// and the trial index, so results do not depend on call order, and it
// only slows a trial down, like scheduler jitter on a real host. Like
// gort it reports itself non-deterministic and never collapses trials,
// so the harness and the sweeps treat it exactly as they treat gort.
type fakeBackend struct {
	model exec.CostModel
}

// fakeNoise bounds one trial's relative slowdown. It stays below the 1c
// regret tolerance, so a csim profile equal to the fake's model always
// agrees with it.
const fakeNoise = 0.1

// fakeModel is a host on which a message costs as much as 100 cycles of
// compute, the regime real channel sends put the goroutine runtime in.
var fakeModel = exec.CostModel{
	ComputeNsPerCycle: 10,
	CommNsPerMessage:  1000,
	IterOverheadNs:    50,
	SeqNsPerCycle:     10,
}

// freeMessages is fakeModel with messages that cost nothing.
var freeMessages = exec.CostModel{ComputeNsPerCycle: 10, SeqNsPerCycle: 10}

func (fakeBackend) Name() string                      { return "fake" }
func (fakeBackend) Deterministic() bool               { return false }
func (fakeBackend) EffectiveTrials(trials, _ int) int { return trials }

func (f fakeBackend) RunTrials(g *graph.Graph, progs []program.Program, iterations int, cfg exec.TrialConfig) (*exec.TrialStats, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("fake: trial count %d, want >= 1", cfg.Trials)
	}
	ts, err := exec.Calibrated{Model: f.model}.RunTrials(g, progs, iterations,
		exec.TrialConfig{Trials: 1, Grain: cfg.Grain, Machine: cfg.Machine})
	if err != nil {
		return nil, err
	}
	h := mix(1, uint64(iterations))
	for _, p := range progs {
		h = mix(h, uint64(p.Proc))
		for _, in := range p.Instrs {
			h = mix(mix(mix(mix(h, uint64(in.Kind)), uint64(in.Node)), uint64(in.Iter)), uint64(in.Peer))
		}
	}
	base := ts.Makespans[0]
	ts.Backend = "fake"
	ts.Trials = cfg.Trials
	ts.Makespans = make([]float64, cfg.Trials)
	for t := range ts.Makespans {
		u := float64(mix(h, uint64(t))>>11) / (1 << 53)
		ts.Makespans[t] = base * (1 + fakeNoise*u)
	}
	return ts, nil
}

// mix folds v into the hash state h (FNV-1a over the word, then a
// splitmix finalizer so nearby inputs land far apart).
func mix(h, v uint64) uint64 {
	h = (h ^ v) * 1099511628211
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}
