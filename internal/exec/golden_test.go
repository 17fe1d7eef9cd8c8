package exec

import (
	"fmt"
	"math"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/machine"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

// TestGoldenGortMatchesSequentialOnRandomSuite is the golden equivalence
// test over the workload generators: the paper's seeded random suite, the
// Streams and Braid families, the paper's figures, Livermore 18 and the
// elliptic filter, each lowered at grain 0 and at the smallest grain
// G > 1 that chunks it. For each, the exact program set the sim backend
// times must (a) execute on the goroutine runtime (a mimdrt Runner, in
// chunk space at G > 1) computing instance values identical
// to mimdrt.Sequential — the gort backend's own cross-check, exercised
// here end to end — and (b) run deadlock-free on the simulated machine,
// so both backends agree the programs are well-formed. Values are also
// compared explicitly (not just through the backend's internal check) so
// a regression in the check itself cannot hide a mis-execution.
func TestGoldenGortMatchesSequentialOnRandomSuite(t *testing.T) {
	const iters = 24
	type loop struct {
		name string
		g    *graph.Graph
	}
	var loops []loop
	for seed := int64(1); seed <= 6; seed++ {
		g, err := workload.Random(workload.PaperSpec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		loops = append(loops, loop{fmt.Sprintf("random seed %d", seed), g})
	}
	streams, err := workload.Streams(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	braid, err := workload.Braid(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	loops = append(loops,
		loop{"streams", streams}, loop{"braid", braid},
		loop{"figure 1", workload.Figure1()}, loop{"figure 3", workload.Figure3()},
		loop{"figure 7", workload.Figure7().Graph}, loop{"figure 9", workload.Figure9()},
		loop{"livermore 18", workload.Livermore18().Graph}, loop{"elliptic", workload.Elliptic().Graph})

	chunked := 0
	for _, l := range loops {
		g := l.g
		grains := []int{0}
		for grain := 2; grain <= 8; grain++ {
			if _, err := graph.Chunked(g, grain); err == nil {
				grains = append(grains, grain)
				chunked++
				break
			}
		}
		for _, grain := range grains {
			name := fmt.Sprintf("%s, grain %d", l.name, grain)
			ls, err := core.ScheduleLoop(g, core.Options{CommCost: 3, Grain: grain}, iters)
			if err != nil {
				t.Fatalf("%s: schedule: %v", name, err)
			}
			progs, err := program.Build(ls.Full)
			if err != nil {
				t.Fatalf("%s: lower: %v", name, err)
			}

			// (a) Goroutine execution computes the sequential values.
			r := mimdrt.NewChunkedRunner(g, progs, mimdrt.MixSemantics{}, grain, iters)
			got, err := r.Run()
			r.Close()
			if err != nil {
				t.Fatalf("%s: gort run: %v", name, err)
			}
			want := mimdrt.Sequential(g, mimdrt.MixSemantics{}, iters)
			if len(got) != len(want) {
				t.Fatalf("%s: %d values, sequential computed %d", name, len(got), len(want))
			}
			for id, w := range want {
				if v := got[id]; math.Abs(v-w) > 1e-9*math.Max(1, math.Abs(w)) {
					t.Fatalf("%s: instance %+v = %v, sequential %v", name, id, v, w)
				}
			}

			// The backend harness agrees (its internal cross-check passes and
			// it reports the full trial spread).
			ts, err := Goroutine{}.RunTrials(g, progs, iters, TrialConfig{Trials: 2, Grain: grain})
			if err != nil {
				t.Fatalf("%s: gort backend: %v", name, err)
			}
			if ts.Trials != 2 || len(ts.Makespans) != 2 {
				t.Fatalf("%s: trial spread %+v", name, ts)
			}

			// (b) The sim backend runs the same programs deadlock-free.
			if _, err := machine.Run(g, progs, machine.Config{Grain: grain}); err != nil {
				t.Fatalf("%s: sim run: %v", name, err)
			}
		}
	}
	t.Logf("%d of %d generators also ran chunked", chunked, len(loops))
	if chunked == 0 {
		t.Fatal("no generator chunked at any grain in 2..8; the G > 1 leg ran nowhere")
	}
}
