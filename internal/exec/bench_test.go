package exec

import (
	"testing"
	"time"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
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

// BenchmarkGortTrials runs gort trials as a measured tune does: the
// Figure 7 plan at grain 1 for 60 iterations, and Streams(2, 4, 1) at
// grain 4 for 240, 2 trials per evaluation on 2 processors. Each
// evaluation wires a Runner and checks every trial's values.
func BenchmarkGortTrials(b *testing.B) {
	streams, err := workload.Streams(2, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := core.ScheduleLoop(streams, core.Options{Processors: 2, CommCost: 2, Grain: 4}, 240)
	if err != nil {
		b.Fatal(err)
	}
	chunked, err := program.Build(ls.Full)
	if err != nil {
		b.Fatal(err)
	}
	fig7, fig7Progs := fig7Programs(b, 60)
	for _, c := range []struct {
		name         string
		g            *graph.Graph
		progs        []program.Program
		iters, grain int
	}{
		{"figure7-grain1", fig7, fig7Progs, 60, 1},
		{"streams-grain4", streams, chunked, 240, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := TrialConfig{Trials: 2, Grain: c.grain}
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := (Goroutine{}).RunTrials(c.g, c.progs, c.iters, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*cfg.Trials), "µs/trial")
		})
	}
}
