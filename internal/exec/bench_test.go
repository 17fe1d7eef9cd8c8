package exec

import (
	"testing"
	"time"
)

// BenchmarkSimulatorBackends runs the two simulator backends' trials on
// the Figure 7 plan at 100 iterations, mm = 3, 3 trials: the per-trial
// cost of a sim and a csim tune point.
func BenchmarkSimulatorBackends(b *testing.B) {
	g, progs := fig7Programs(b, 100)
	cfg := TrialConfig{Trials: 3, Fluct: 3, Seed: 1}
	model := CostModel{ComputeNsPerCycle: 40, CommNsPerMessage: 1200, IterOverheadNs: 500, SeqNsPerCycle: 50}
	for _, be := range []Backend{Sim{}, Calibrated{Model: model}} {
		b.Run(be.Name(), func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := be.RunTrials(g, progs, 100, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*cfg.Trials), "µs/trial")
		})
	}
}
