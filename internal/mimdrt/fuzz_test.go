package mimdrt

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"mimdloop/internal/graph"
	"mimdloop/internal/jsonwire"
	"mimdloop/internal/machine"
	"mimdloop/internal/program"
	"mimdloop/internal/program/progtest"
	"mimdloop/internal/workload"
)

// FuzzExecute decodes program sets for the figure 7 graph from the wire
// format, as FuzzSimulate does, and runs them on a Runner and on a
// chunked Runner at a fuzzed grain of 2–8. Nothing may panic, and a set that
// machine.Run completes must not block: the runtime's waits are a subset
// of the simulator's. Every value the runtime returns must equal
// Sequential's at that instance, which holds by induction over operands.
// A set wiring accepts but the simulator deadlocks on is not run: it
// may wait in a circle.
func FuzzExecute(f *testing.F) {
	g := workload.Figure7().Graph
	bases, err := progtest.FuzzBases()
	if err != nil {
		f.Fatal(err)
	}
	for i, progs := range bases {
		f.Add(progtest.AppendJSON(nil, progs), 2+2*i)
		for _, m := range progtest.Mutations {
			if mp := m.Apply(progs); mp != nil {
				f.Add(progtest.AppendJSON(nil, mp), 3+2*i)
			}
		}
	}
	f.Add([]byte(`[{"Proc":0,"Instrs":[{"Kind":0,"Node":1,"Iter":1099511627776,"Peer":0,"Cost":0}]}]`), 0)

	f.Fuzz(func(t *testing.T, data []byte, grain int) {
		progs, err := progtest.DecodeJSON(jsonwire.New(data), g.N())
		if err != nil {
			return
		}
		grain = 2 + int(uint(grain)%7)
		maxIter := 0
		for _, pr := range progs {
			for _, in := range pr.Instrs {
				maxIter = max(maxIter, in.Iter)
			}
		}
		_, serr := machine.Run(g, progs, machine.Config{})
		for _, r := range []*Runner{
			NewRunner(g, progs, MixSemantics{}),
			NewChunkedRunner(g, progs, MixSemantics{}, grain, (maxIter+1)*grain-1),
		} {
			runWithin(t, g, r, serr == nil)
		}
	})
}

// runWithin runs one pass of r when wiring refused its set or when the
// simulator completes it, and fails if that pass blocks for 10 s or
// returns a value other than the sequential one.
func runWithin(t *testing.T, g *graph.Graph, r *Runner, completes bool) {
	t.Helper()
	defer r.Close()
	if r.dead == nil && !completes {
		return
	}
	type outcome struct {
		vals map[graph.InstanceID]float64
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		vals, err := r.Run()
		done <- outcome{vals, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a pass blocked for 10 s on a set the simulator completes")
	}
	if out.err != nil {
		return
	}
	n := 0
	for id := range out.vals {
		n = max(n, id.Iter+1)
	}
	want := SequentialTable(g, MixSemantics{}, n)
	for id, v := range out.vals {
		if w := want[id.Iter*g.N()+id.Node]; v != w {
			t.Fatalf("instance %+v = %v, sequential %v", id, v, w)
		}
	}
}

// TestRunRefusesMalformed: a program set that would crash the runtime
// or block it forever gets an error from NewRunner's and
// NewChunkedRunner's runners, never a panic or a hang, and the refusal
// of a sparse set allocates nothing sized by its span.
func TestRunRefusesMalformed(t *testing.T) {
	g := figure7(t)
	a0 := program.Instr{Kind: program.OpCompute, Node: 0, Iter: 0}
	pe := func(ins ...program.Instr) []program.Instr { return ins }
	set := func(pe0, pe1 []program.Instr) []program.Program {
		return []program.Program{{Proc: 0, Instrs: pe0}, {Proc: 1, Instrs: pe1}}
	}
	pass := func(r *Runner) error {
		defer r.Close()
		_, err := r.Run()
		return err
	}
	for name, progs := range map[string][]program.Program{
		"send to processor 5 of 2":    set(pe(a0, program.Instr{Kind: program.OpSend, Peer: 5}), nil),
		"send to its own processor":   set(pe(a0, program.Instr{Kind: program.OpSend, Peer: 0}), nil),
		"recv from its own processor": set(pe(program.Instr{Kind: program.OpRecv, Peer: 0}), nil),
		"recv that no send feeds":     set(nil, pe(program.Instr{Kind: program.OpRecv, Peer: 0})),
		"recv past the link's sends": set(pe(a0, program.Instr{Kind: program.OpSend, Peer: 1}),
			pe(program.Instr{Kind: program.OpRecv, Peer: 0}, program.Instr{Kind: program.OpRecv, Iter: 1, Peer: 0})),
		"compute node past the graph": set(pe(program.Instr{Kind: program.OpCompute, Node: 5}), nil),
		"negative node":               set(pe(program.Instr{Kind: program.OpSend, Node: -1, Peer: 1}), nil),
		"negative iteration":          set(pe(program.Instr{Kind: program.OpCompute, Iter: -1}), nil),
		"recv from a negative peer":   set(pe(program.Instr{Kind: program.OpRecv, Peer: -1}), nil),
		"span past the slot bound":    set(pe(program.Instr{Kind: program.OpCompute, Iter: 1 << 40}), nil),
		"span just past the bound":    set(pe(program.Instr{Kind: program.OpSend, Iter: 1 << 20 / 5, Peer: 1}), nil),
	} {
		for _, run := range []func() error{
			func() error { return pass(NewRunner(g, progs, MixSemantics{})) },
			func() error { return pass(NewChunkedRunner(g, progs, MixSemantics{}, 4, 1)) },
		} {
			done := make(chan error, 1)
			go func() { done <- run() }()
			select {
			case err := <-done:
				if !errors.Is(err, errMalformed) {
					t.Errorf("%s: error %v, want a malformed-program refusal", name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: still running after 10 s", name)
			}
		}
	}

	// The last iteration inside the bound is not refused for its span
	// (its operands are missing, which is a different error).
	inside := set(pe(program.Instr{Kind: program.OpCompute, Iter: 1<<20/5 - 1}), nil)
	if err := pass(NewRunner(g, inside, MixSemantics{})); err == nil || errors.Is(err, errMalformed) {
		t.Fatalf("iteration inside the slot bound: error %v, want a missing-operand error", err)
	}

	if raceEnabled {
		return
	}
	sparse := set(pe(program.Instr{Kind: program.OpCompute, Iter: 1 << 40}), nil)
	allocs := testing.AllocsPerRun(10, func() { _ = pass(NewRunner(g, sparse, MixSemantics{})) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = pass(NewRunner(g, set(pe(program.Instr{Kind: program.OpSend, Iter: 1 << 20 / 5, Peer: 1}), nil), MixSemantics{}))
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("refusal: %.0f allocs, %d bytes", allocs, bytes)
	// A table for the span would take 8 MB.
	if allocs > 8 || bytes > 4096 {
		t.Fatalf("refusing a sparse set made %.0f allocations of %d bytes; want only the runner and its error", allocs, bytes)
	}
}
