package mimdrt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mimdloop/internal/core"
	"mimdloop/internal/doacross"
	"mimdloop/internal/graph"
	"mimdloop/internal/program"
)

func figure7(t testing.TB) *graph.Graph {
	b := graph.NewBuilder()
	a := b.AddNode("A", 1)
	bb := b.AddNode("B", 1)
	c := b.AddNode("C", 1)
	d := b.AddNode("D", 1)
	e := b.AddNode("E", 1)
	b.AddEdge(a, a, 1)
	b.AddEdge(e, a, 1)
	b.AddEdge(a, bb, 0)
	b.AddEdge(bb, c, 0)
	b.AddEdge(d, d, 1)
	b.AddEdge(c, d, 1)
	b.AddEdge(d, e, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runOnce executes one pass of progs on a fresh Runner, chunked at grain
// for iters real iterations when grain > 1, and returns its values.
func runOnce(g *graph.Graph, progs []program.Program, grain, iters int) (map[graph.InstanceID]float64, error) {
	r := NewChunkedRunner(g, progs, MixSemantics{}, grain, iters)
	defer r.Close()
	return r.Run()
}

func valuesEqual(t testing.TB, got, want map[graph.InstanceID]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("value count %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("missing value for %+v", k)
		}
		if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Fatalf("value %+v = %v, want %v", k, g, w)
		}
	}
}

func TestParallelExecutionMatchesSequential(t *testing.T) {
	g := figure7(t)
	res, err := core.CyclicSched(g, core.Options{Processors: 2, CommCost: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	s, err := res.Expand(n)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runOnce(g, progs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, got, Sequential(g, MixSemantics{}, n))
}

func TestDoacrossExecutionMatchesSequential(t *testing.T) {
	g := figure7(t)
	res, err := doacross.Schedule(g, doacross.Options{MaxProcessors: 3, CommCost: 1}, 25)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runOnce(g, progs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, got, Sequential(g, MixSemantics{}, 25))
}

func TestRunReportsInvalidProgram(t *testing.T) {
	g := figure7(t)
	// A compute whose operand was never produced locally or received.
	progs := []program.Program{
		{Proc: 0, Instrs: []program.Instr{{Kind: program.OpCompute, Node: 1, Iter: 0}}},
	}
	if _, err := runOnce(g, progs, 0, 0); err == nil {
		t.Fatal("invalid program accepted")
	}
	// A send of an unknown value.
	progs = []program.Program{
		{Proc: 0, Instrs: []program.Instr{{Kind: program.OpSend, Node: 0, Iter: 0, Peer: 1}}},
		{Proc: 1},
	}
	if _, err := runOnce(g, progs, 0, 0); err == nil {
		t.Fatal("send of unknown value accepted")
	}
	// A processor that fails while its peer waits on a message from it:
	// the peer must be released, so the pass returns the failure instead
	// of blocking forever.
	progs = []program.Program{
		{Proc: 0, Instrs: []program.Instr{{Kind: program.OpCompute, Node: 1, Iter: 0}}},
		{Proc: 1, Instrs: []program.Instr{{Kind: program.OpRecv, Node: 0, Iter: 0, Peer: 0}}},
	}
	done := make(chan error, 1)
	go func() {
		_, err := runOnce(g, progs, 0, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("failed processor accepted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the pass still blocked 10 s after PE0 failed while PE1 waited on it")
	}
}

func TestPropertyFullPipelineSemanticsPreserved(t *testing.T) {
	// End-to-end: random loop -> full ScheduleLoop composition -> programs
	// -> concurrent goroutine execution == sequential interpretation.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		b := graph.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode("n", 1+rng.Intn(3))
		}
		for i, sd := 0, rng.Intn(2*n); i < sd; i++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			b.AddEdge(u, v, 0)
		}
		for i, lcd := 0, rng.Intn(n+1); i < lcd; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(2))
		}
		g := b.MustBuild()
		iters := 2 + rng.Intn(12)
		ls, err := core.ScheduleLoop(g, core.Options{Processors: 3, CommCost: rng.Intn(3), FoldNonCyclic: seed%2 == 0}, iters)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		progs, err := program.Build(ls.Full)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got, err := runOnce(g, progs, 0, 0)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := Sequential(g, MixSemantics{}, iters)
		if len(got) != len(want) {
			return false
		}
		for k, w := range want {
			if math.Abs(got[k]-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Logf("seed %d: %+v differs", seed, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
