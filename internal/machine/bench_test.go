package machine

import (
	"fmt"
	"testing"
	"time"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

func BenchmarkSimulatedRun(b *testing.B) {
	g := figure7(b)
	res, err := core.CyclicSched(g, core.Options{Processors: 2, CommCost: 2})
	if err != nil {
		b.Fatal(err)
	}
	s, err := res.Expand(1000)
	if err != nil {
		b.Fatal(err)
	}
	progs, err := program.Build(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, progs, Config{Fluct: 3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(progs[0].Instrs)+len(progs[1].Instrs))/1000, "instrs/iter")
}

// BenchmarkWire wires the figure 7 plan (p = 2, k = 2) for the simulator
// at 60 and 1,000 iterations: the set check, the message slots and the
// run state that every sim or csim evaluation builds before its first
// trial.
func BenchmarkWire(b *testing.B) {
	g := figure7(b)
	for _, n := range []int{60, 1000} {
		ls, err := core.ScheduleLoop(g, core.Options{Processors: 2, CommCost: 2}, n)
		if err != nil {
			b.Fatal(err)
		}
		progs, err := program.Build(ls.Full)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire(g, progs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// table1Plan is one of the Table 1 plans the measured tunes evaluate:
// Section 4 random loop seed scheduled for 100 iterations at k = 2 on a
// budget of procs processors.
type table1Plan struct {
	g     *graph.Graph
	progs []program.Program
}

func table1Plans(tb testing.TB, seeds []int64, procs []int) []table1Plan {
	tb.Helper()
	var plans []table1Plan
	for _, seed := range seeds {
		g, err := workload.Random(workload.PaperSpec, seed)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range procs {
			ls, err := core.ScheduleLoop(g, core.Options{Processors: p, CommCost: 2}, 100)
			if err != nil {
				tb.Fatal(err)
			}
			progs, err := program.Build(ls.Full)
			if err != nil {
				tb.Fatal(err)
			}
			plans = append(plans, table1Plan{g, progs})
		}
	}
	return plans
}

// table1Config is the measured tunes' trial protocol: mm = 3, 3 trials.
var table1Config = Config{Fluct: 3, Seed: 1}

// BenchmarkSimTrialsTable1 runs 3 fluctuation trials of each of the 75
// Table 1 plans (25 loops at p = 2, 4 and 8) per iteration, the sim
// evaluations a measured tune of the suite makes.
func BenchmarkSimTrialsTable1(b *testing.B) {
	seeds := make([]int64, 25)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	plans := table1Plans(b, seeds, []int{2, 4, 8})
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, pl := range plans {
			if _, err := RunTrials(pl.g, pl.progs, table1Config, 3); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*len(plans)*3), "µs/trial")
}

// TestRunTrialsAllocs pins the allocation count of 3 fluctuation trials
// of one Table 1 plan (loop 1 at p = 4, 3,414 instructions). With
// arrivals and link state in hash maps and a fresh run per trial,
// RunTrials made 74 allocations here; wired once into dense message
// slots it makes 16: the wiring, one run state the trials share, and the
// trial stats. A failure means a per-message or per-trial allocation
// came back; find it rather than raise the budget.
func TestRunTrialsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	pl := table1Plans(t, []int64{1}, []int{4})[0]
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunTrials(pl.g, pl.progs, table1Config, 3); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 20 // measured 16; the map-based RunTrials made 74
	t.Logf("%.0f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("RunTrials allocates %.0f times, over the budget of %d", allocs, budget)
	}
}
