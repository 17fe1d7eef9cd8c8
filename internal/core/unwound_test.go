package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mimdloop/internal/graph"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/program"
)

// distance2Loop: X(2) -> Y(1) within iteration, Y -> X at distance 3.
// Three iterations can run concurrently; per-iteration rate 1 with enough
// processors (cycle latency 3 over distance 3).
func distance2Loop(t testing.TB) *graph.Graph {
	b := graph.NewBuilder()
	x := b.AddNode("X", 2)
	y := b.AddNode("Y", 1)
	b.AddEdge(x, y, 0)
	b.AddEdge(y, x, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestScheduleUnwoundBasics(t *testing.T) {
	g := distance2Loop(t)
	u, err := ScheduleUnwound(g, Options{Processors: 4, CommCost: 0}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if u.Factor != 3 {
		t.Fatalf("factor = %d, want 3", u.Factor)
	}
	if u.Full.Iterations() != 30 {
		t.Fatalf("iterations = %d", u.Full.Iterations())
	}
	// With zero communication, three independent chains pipeline to ~1
	// cycle per original iteration.
	if rate := u.RatePerIteration(); rate > 1.5 {
		t.Fatalf("rate = %v cycles/original-iteration, want ~1", rate)
	}
}

func TestScheduleUnwoundNoUnwindNeeded(t *testing.T) {
	b := graph.NewBuilder()
	x := b.AddNode("X", 1)
	b.AddEdge(x, x, 1)
	g := b.MustBuild()
	u, err := ScheduleUnwound(g, Options{Processors: 2, CommCost: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if u.Factor != 1 {
		t.Fatalf("factor = %d, want 1", u.Factor)
	}
	if u.Full.Makespan() != 10 {
		t.Fatalf("makespan = %d, want 10", u.Full.Makespan())
	}
}

func TestScheduleUnwoundNonMultipleTripCount(t *testing.T) {
	g := distance2Loop(t)
	// 31 is not a multiple of the factor 3: the tail copies must be
	// dropped cleanly.
	u, err := ScheduleUnwound(g, Options{Processors: 4, CommCost: 1}, 31)
	if err != nil {
		t.Fatal(err)
	}
	if u.Full.Iterations() != 31 {
		t.Fatalf("iterations = %d, want 31", u.Full.Iterations())
	}
	if err := u.Full.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleUnwoundSemanticsPreserved(t *testing.T) {
	g := distance2Loop(t)
	n := 25
	u, err := ScheduleUnwound(g, Options{Processors: 3, CommCost: 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(u.Full)
	if err != nil {
		t.Fatal(err)
	}
	r := mimdrt.NewRunner(g, progs, mimdrt.MixSemantics{})
	defer r.Close()
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := mimdrt.Sequential(g, mimdrt.MixSemantics{}, n)
	if len(got) != len(want) {
		t.Fatalf("values = %d, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Fatalf("%+v = %v, want %v", k, got[k], w)
		}
	}
}

func TestScheduleUnwoundRejectsBadN(t *testing.T) {
	g := distance2Loop(t)
	if _, err := ScheduleUnwound(g, Options{}, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestPropertyUnwoundValidAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nn := 2 + rng.Intn(6)
		b := graph.NewBuilder()
		for i := 0; i < nn; i++ {
			b.AddNode("n", 1+rng.Intn(2))
		}
		for i, sd := 0, rng.Intn(nn); i < sd; i++ {
			u := rng.Intn(nn - 1)
			v := u + 1 + rng.Intn(nn-u-1)
			b.AddEdge(u, v, 0)
		}
		for i, lcd := 0, 1+rng.Intn(nn); i < lcd; i++ {
			b.AddEdge(rng.Intn(nn), rng.Intn(nn), 1+rng.Intn(3))
		}
		g := b.MustBuild()
		n := 3 + rng.Intn(15)
		u, err := ScheduleUnwound(g, Options{Processors: 3, CommCost: rng.Intn(3)}, n)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return u.Full.Iterations() == n && u.Full.Validate(true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
