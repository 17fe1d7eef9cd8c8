package program

import (
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/plan"
	"mimdloop/internal/workload"
)

// table1Plan is the plan BenchmarkServeCold serves: the first Table 1
// loop for 250 iterations at k = 2 on sufficient processors, 3,000
// placements.
func table1Plan(tb testing.TB) *plan.Schedule {
	tb.Helper()
	suite, err := workload.Suite()
	if err != nil {
		tb.Fatal(err)
	}
	ls, err := core.ScheduleLoop(suite[0], core.Options{CommCost: 2}, 250)
	if err != nil {
		tb.Fatal(err)
	}
	return ls.Full
}

func BenchmarkBuildPrograms(b *testing.B) {
	s := table1Plan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildAllocs pins the allocation count of lowering the Table 1 plan.
// With messages in hash maps keyed by MsgKey and instances in a map keyed
// by graph.InstanceID, Build made 10,158 allocations here; with the dense
// instance table and the flat message list it makes 8: the table, the
// processor groups, the message list and its link heads, the programs
// and their one instruction array. A failure means a per-message or
// per-placement allocation came back; find it rather than raise the
// budget.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	s := table1Plan(t)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Build(s); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 12 // measured 8; the map-based Build made 10,158
	t.Logf("%d placements: %.0f allocs (budget %d)", len(s.Placements), allocs, budget)
	if allocs > budget {
		t.Fatalf("Build allocates %.0f times, over the budget of %d", allocs, budget)
	}
}
