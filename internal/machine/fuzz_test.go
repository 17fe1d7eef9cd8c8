package machine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mimdloop/internal/jsonwire"
	"mimdloop/internal/program"
	"mimdloop/internal/program/progtest"
	"mimdloop/internal/workload"
)

// FuzzSimulate decodes program sets for the figure 7 graph from the wire
// format and runs them under a fuzzed fluctuation, seed and link order.
// Nothing may panic, and Run and RunTrials must match the map-based
// references exactly, except that a set whose iterations span past the
// instance-slot bound is refused: the decoder range-checks every other
// field the simulator indexes with.
func FuzzSimulate(f *testing.F) {
	g := workload.Figure7().Graph
	bases, err := progtest.FuzzBases()
	if err != nil {
		f.Fatal(err)
	}
	for i, progs := range bases {
		f.Add(progtest.AppendJSON(nil, progs), 3, int64(i), i%2 == 0)
		for _, m := range progtest.Mutations {
			if mp := m.Apply(progs); mp != nil {
				f.Add(progtest.AppendJSON(nil, mp), 5, int64(-i), i%2 == 1)
			}
		}
	}
	f.Add([]byte(`[{"Proc":0,"Instrs":[{"Kind":0,"Node":1,"Iter":1099511627776,"Peer":0,"Cost":0}]}]`), 0, int64(0), false)

	f.Fuzz(func(t *testing.T, data []byte, fluct int, seed int64, fifo bool) {
		progs, err := progtest.DecodeJSON(jsonwire.New(data), g.N())
		if err != nil {
			return
		}
		cfg := Config{Fluct: fluct, Seed: seed, LinkFIFO: fifo}
		got, gerr := Run(g, progs, cfg)
		if errors.Is(gerr, errMalformed) {
			if !strings.Contains(gerr.Error(), "slot bound") {
				t.Fatalf("decoded program set refused for more than its span: %v", gerr)
			}
			return
		}
		want, werr := refRun(g, progs, cfg)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Run = %+v, %v; reference %+v, %v", got, gerr, want, werr)
		}
		gotT, gerr := RunTrials(g, progs, cfg, 2)
		wantT, werr := refRunTrials(g, progs, cfg, 2)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("RunTrials = %+v, %v; reference %+v, %v", gotT, gerr, wantT, werr)
		}
	})
}

// TestRunRefusesMalformed: a program set the simulator would index out
// of range with, or whose iterations span past the instance-slot bound,
// gets an error from Run and RunTrials, never a panic, and the refusal
// allocates nothing sized by the span.
func TestRunRefusesMalformed(t *testing.T) {
	g := figure7(t)
	one := func(in program.Instr) []program.Program {
		return []program.Program{{Proc: 0, Instrs: []program.Instr{in}}, {Proc: 1}}
	}
	for name, progs := range map[string][]program.Program{
		"compute node past the graph": one(program.Instr{Kind: program.OpCompute, Node: 5}),
		"negative node":               one(program.Instr{Kind: program.OpSend, Node: -1, Peer: 1}),
		"negative iteration":          one(program.Instr{Kind: program.OpCompute, Iter: -1}),
		"send to a missing processor": one(program.Instr{Kind: program.OpSend, Peer: 2}),
		"recv from a negative peer":   one(program.Instr{Kind: program.OpRecv, Peer: -1}),
		"span past the slot bound":    one(program.Instr{Kind: program.OpCompute, Iter: 1 << 40}),
		"span just past the bound":    one(program.Instr{Kind: program.OpSend, Iter: 1 << 20 / 5, Peer: 1}),
	} {
		if _, err := Run(g, progs, Config{}); !errors.Is(err, errMalformed) {
			t.Errorf("%s: Run error %v, want a malformed-program refusal", name, err)
		}
		if _, err := RunTrials(g, progs, Config{Fluct: 3}, 2); !errors.Is(err, errMalformed) {
			t.Errorf("%s: RunTrials error %v, want a malformed-program refusal", name, err)
		}
	}

	// The last iteration inside the bound still runs.
	if _, err := Run(g, one(program.Instr{Kind: program.OpCompute, Iter: 1<<20/5 - 1}), Config{}); err != nil {
		t.Fatalf("iteration inside the slot bound refused: %v", err)
	}

	if raceEnabled {
		return
	}
	sparse := one(program.Instr{Kind: program.OpCompute, Iter: 1 << 40})
	allocs := testing.AllocsPerRun(10, func() { _, _ = Run(g, sparse, Config{}) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _ = Run(g, one(program.Instr{Kind: program.OpSend, Iter: 1 << 20 / 5, Peer: 1}), Config{})
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("refusal: %.0f allocs, %d bytes", allocs, bytes)
	// Measured 5 allocations of 296 bytes: the program offsets and the
	// error. A table for the span would take 4 MB.
	if allocs > 8 || bytes > 4096 {
		t.Fatalf("refusing a sparse set made %.0f allocations of %d bytes; want only its error", allocs, bytes)
	}
}
