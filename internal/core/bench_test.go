package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mimdloop/internal/graph"
	"mimdloop/internal/workload"
)

// benchGraph builds a connected cyclic graph of n nodes: a ring of
// recurrences with chords, the scheduler's hot shape.
func benchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("n%d", i), 1+rng.Intn(3))
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 0)
	}
	b.AddEdge(n-1, 0, 1)
	for i := 0; i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		b.AddEdge(u, v, 1+rng.Intn(2))
	}
	return b.MustBuild()
}

func BenchmarkCyclicSched(b *testing.B) {
	for _, n := range []int{8, 20, 40, 80} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CyclicSched(g, Options{Processors: 4, CommCost: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGreedyN(b *testing.B) {
	g := benchGraph(20)
	for _, iters := range []int{10, 100} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GreedyN(g, Options{Processors: 4, CommCost: 2}, iters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExpand(b *testing.B) {
	g := benchGraph(20)
	res, err := CyclicSched(g, Options{Processors: 4, CommCost: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{100, 1000} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := res.Expand(iters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleLoopComposed(b *testing.B) {
	// Mixed classification workload: fringe + core.
	bld := graph.NewBuilder()
	for i := 0; i < 6; i++ {
		bld.AddNode(fmt.Sprintf("in%d", i), 1)
	}
	x := bld.AddNode("X", 2)
	y := bld.AddNode("Y", 1)
	o := bld.AddNode("O", 1)
	for i := 0; i < 6; i++ {
		bld.AddEdge(i, x, 0)
	}
	bld.AddEdge(x, y, 0)
	bld.AddEdge(y, x, 1)
	bld.AddEdge(y, o, 0)
	g := bld.MustBuild()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleLoop(g, Options{Processors: 2, CommCost: 2}, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTimeline(b *testing.B) {
	b.Run("fit-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var tl timeline
			for j := 0; j < 200; j++ {
				t := tl.fit(j%17, 2, false)
				tl.insert(t, 2)
			}
		}
	})
}

// TestScheduleLoopAllocs pins the allocation count of scheduling the plan
// BenchmarkServeCold serves: the first Table 1 loop for 250 iterations at
// k = 2 on sufficient processors, 3,000 placements. With instances in
// hash maps keyed by graph.InstanceID (Cyclic-sched, GreedyN and
// composition) and placement lists grown by append, ScheduleLoop made
// 3,226 allocations here; with dense instance tables and pre-sized
// placement lists it makes 2,832. Most of the rest are ready-queue
// entries, pattern-detector windows and the component subgraphs.
func TestScheduleLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	suite, err := workload.Suite()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ScheduleLoop(suite[0], Options{CommCost: 2}, 250); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 3000 // measured 2,832; the map-based scheduler made 3,226
	t.Logf("%.0f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("ScheduleLoop allocates %.0f times, over the budget of %d", allocs, budget)
	}
}
