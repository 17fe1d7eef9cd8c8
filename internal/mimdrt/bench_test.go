package mimdrt

import (
	"fmt"
	"runtime"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/program"
)

func BenchmarkGoroutineExecution(b *testing.B) {
	// Real parallel execution of 1000 iterations of the Figure 7 loop:
	// measures the fine-grain synchronization cost the repro notes warn
	// about (channel send/recv per cross-processor value).
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
		if _, err := runOnce(g, progs, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWire wires the figure 7 plan (p = 2, k = 2) for the goroutine
// runtime at 60 and 1,000 iterations: the set check, the link layout and
// the replay that NewRunner does once per program set, before any pass.
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
				if _, _, err := wire(g, progs, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSequentialInterpretation(b *testing.B) {
	g := figure7(b)
	for i := 0; i < b.N; i++ {
		Sequential(g, MixSemantics{}, 1000)
	}
}

// TestPassAllocs pins a grain-1 pass over the Figure 7 plan to a fixed
// number of allocations, the same at 50 and 500 iterations: one-value
// messages travel inline and no table is cleared or rebuilt per pass.
// The map-based runtime made 313 and 2,617.
func TestPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	g := figure7(t)
	var allocs []float64
	for _, n := range []int{50, 500} {
		ls, err := core.ScheduleLoop(g, core.Options{Processors: 2, CommCost: 2}, n)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := program.Build(ls.Full)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(g, progs, MixSemantics{})
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if err := r.Pass(); err != nil {
				t.Fatal(err)
			}
		}))
		r.Close()
	}
	t.Logf("allocations per pass: %.0f at n = 50, %.0f at n = 500", allocs[0], allocs[1])
	if allocs[0] != allocs[1] {
		t.Fatalf("a pass allocates %.0f times at n = 50 and %.0f at n = 500; something is allocated per instruction", allocs[0], allocs[1])
	}
}

// TestRunnerMemoryBounded pins the cost of wiring to what the programs
// touch, not to processors × iterations: 50 independent nodes offered
// 256 processors occupy all of them, and building the Runner and one
// pass at n = 2,000 must stay within the 32 MB the map-based runtime
// took (11.3 MB of it a 256² matrix of mostly empty channels).
func TestRunnerMemoryBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes vary under -race")
	}
	b := graph.NewBuilder()
	for i := 0; i < 50; i++ {
		b.AddNode("n", 1)
	}
	g := b.MustBuild()
	ls, err := core.ScheduleLoop(g, core.Options{Processors: 256, CommCost: 2}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(ls.Full)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 256 {
		t.Fatalf("%d programs, want 256", len(progs))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRunner(g, progs, MixSemantics{})
	err = r.Pass()
	r.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("runner and one pass: %.1f MB", float64(bytes)/1e6)
	if bytes > 32e6 {
		t.Fatalf("building the runner and one pass allocated %.1f MB, over the 32 MB bound", float64(bytes)/1e6)
	}
}
