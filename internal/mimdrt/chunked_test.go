package mimdrt

import (
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

// chunkedProgs schedules g at the given grain and lowers the chunked
// schedule to per-processor programs.
func chunkedProgs(t testing.TB, g *graph.Graph, grain, n, procs int) []program.Program {
	t.Helper()
	ls, err := core.ScheduleLoop(g, core.Options{Processors: procs, CommCost: 2, Grain: grain}, n)
	if err != nil {
		t.Fatalf("grain %d: %v", grain, err)
	}
	if ls.Full.Grain != grain {
		t.Fatalf("schedule grain = %d, want %d", ls.Full.Grain, grain)
	}
	progs, err := program.Build(ls.Full)
	if err != nil {
		t.Fatalf("grain %d: %v", grain, err)
	}
	return progs
}

// TestRunChunkedMatchesSequential pins a one-shot chunked pass against
// the sequential ground truth across grains, including grains that leave
// a partial final chunk and grains larger than the iteration count.
func TestRunChunkedMatchesSequential(t *testing.T) {
	streams, err := workload.Streams(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	braid, err := workload.Braid(5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// figure7 itself is not chunkable (its cross-iteration dependence
	// cycle folds to a zero-distance chunk cycle at any grain > 1); the
	// stream family is what the grain axis exists for.
	for _, g := range []*graph.Graph{streams, braid} {
		for _, grain := range []int{2, 3, 4, 8, 16, 64} {
			for _, n := range []int{1, 7, 16, 41} {
				progs := chunkedProgs(t, g, grain, n, 2)
				got, err := runOnce(g, progs, grain, n)
				if err != nil {
					t.Fatalf("grain %d n %d: %v", grain, n, err)
				}
				valuesEqual(t, got, Sequential(g, MixSemantics{}, n))
			}
		}
	}
}

// TestChunkedRunnerMatchesRunChunked pins a reused chunked Runner
// against a one-shot chunked pass of the same program set.
func TestChunkedRunnerMatchesRunChunked(t *testing.T) {
	g, err := workload.Streams(1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	const grain, n = 4, 30
	progs := chunkedProgs(t, g, grain, n, 2)
	want, err := runOnce(g, progs, grain, n)
	if err != nil {
		t.Fatal(err)
	}
	r := NewChunkedRunner(g, progs, MixSemantics{}, grain, n)
	defer r.Close()
	for trial := 0; trial < 3; trial++ {
		got, err := r.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		valuesEqual(t, got, want)
	}
}

// TestChunkedRunnerGrainOneIsPlainRun pins the degenerate contract:
// grain <= 1 means no fusion, and NewChunkedRunner on an ungrained
// program behaves exactly like NewRunner.
func TestChunkedRunnerGrainOneIsPlainRun(t *testing.T) {
	g := figure7(t)
	ls, err := core.ScheduleLoop(g, core.Options{Processors: 2, CommCost: 2}, 12)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(ls.Full)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewRunner(g, progs, MixSemantics{})
	defer plain.Close()
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := NewChunkedRunner(g, progs, MixSemantics{}, 1, 12)
	defer r.Close()
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, got, want)
}
