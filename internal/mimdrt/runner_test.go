package mimdrt

import (
	"strings"
	"testing"
	"time"

	"mimdloop/internal/core"
	"mimdloop/internal/program"
)

// TestRunnerReusesWorkersAcrossTrials: repeated Runner.Run calls on one
// program set all compute the sequential values — the link buffers and
// worker goroutines carry no state between passes.
func TestRunnerReusesWorkersAcrossTrials(t *testing.T) {
	g := figure7(t)
	res, err := core.CyclicSched(g, core.Options{Processors: 2, CommCost: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := 30
	s, err := res.Expand(n)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(g, MixSemantics{}, n)
	r := NewRunner(g, progs, MixSemantics{})
	defer r.Close()
	for trial := 0; trial < 5; trial++ {
		got, err := r.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		valuesEqual(t, got, want)
	}
}

// TestRunnerMatchesRun: a pass of a kept Runner computes what a one-shot
// pass (a fresh Runner, one Run, Close) computes, and both are the
// sequential values.
func TestRunnerMatchesRun(t *testing.T) {
	g := figure7(t)
	res, err := core.CyclicSched(g, core.Options{Processors: 3, CommCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Expand(20)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runOnce(g, progs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, want, Sequential(g, MixSemantics{}, 20))
	r := NewRunner(g, progs, MixSemantics{})
	defer r.Close()
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	valuesEqual(t, got, want)
}

// TestRunnerDiesCleanlyOnInvalidProgram: a failed pass reports its
// error, releases every worker (even ones blocked on the failed peer's
// messages), and marks the runner dead for subsequent passes.
func TestRunnerDiesCleanlyOnInvalidProgram(t *testing.T) {
	g := figure7(t)
	// PE1 waits forever for a message PE0 never sends; PE0 fails
	// immediately on a compute with an unavailable operand.
	progs := []program.Program{
		{Proc: 0, Instrs: []program.Instr{{Kind: program.OpCompute, Node: 1, Iter: 0}}},
		{Proc: 1, Instrs: []program.Instr{{Kind: program.OpRecv, Node: 0, Iter: 0, Peer: 0}}},
	}
	r := NewRunner(g, progs, MixSemantics{})
	defer r.Close()
	if _, err := r.Run(); err == nil {
		t.Fatal("invalid program accepted")
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("dead runner accepted another pass")
	}
}

// TestRunnerClosedRejectsRun: Close is idempotent and a closed runner
// refuses to run.
func TestRunnerClosedRejectsRun(t *testing.T) {
	g := figure7(t)
	progs := []program.Program{{Proc: 0}}
	r := NewRunner(g, progs, MixSemantics{})
	r.Close()
	r.Close()
	if _, err := r.Run(); err == nil {
		t.Fatal("closed runner accepted a pass")
	}
}

// panicSemantics panics when it evaluates node 0.
type panicSemantics struct{ MixSemantics }

func (s panicSemantics) Eval(node, iter int, args []float64) float64 {
	if node == 0 {
		panic("node 0")
	}
	return s.MixSemantics.Eval(node, iter, args)
}

// TestRunnerReleasesPeersOfAPanickingProcessor: a processor whose
// semantics panics fails the pass, a peer waiting on its message is
// released instead of blocking forever, and the runner is dead after.
func TestRunnerReleasesPeersOfAPanickingProcessor(t *testing.T) {
	g := figure7(t)
	a0 := program.Instr{Kind: program.OpCompute, Node: 0, Iter: 0}
	progs := []program.Program{
		{Proc: 0, Instrs: []program.Instr{a0, {Kind: program.OpSend, Node: 0, Iter: 0, Peer: 1}}},
		{Proc: 1, Instrs: []program.Instr{{Kind: program.OpRecv, Node: 0, Iter: 0, Peer: 0}, {Kind: program.OpCompute, Node: 1, Iter: 0}}},
	}
	r := NewRunner(g, progs, panicSemantics{})
	defer r.Close()
	done := make(chan error, 1)
	go func() { done <- r.Pass() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "semantics panicked: node 0") {
			t.Fatalf("pass error %v, want the panic", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pass still blocked 10 s after PE0 panicked while PE1 waited on it")
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("dead runner accepted another pass")
	}
}

// TestRunnerCheck: Check holds every processor's copy of a value to the
// sequential table, so a wrong duplicate cannot hide behind a correct
// one, and it reports an instance missing from, or computed past, the
// table's iterations by node and iteration.
func TestRunnerCheck(t *testing.T) {
	g := figure7(t)
	a0 := program.Instr{Kind: program.OpCompute, Node: 0, Iter: 0}
	b0 := program.Instr{Kind: program.OpCompute, Node: 1, Iter: 0}
	progs := []program.Program{
		{Proc: 0, Instrs: []program.Instr{a0, {Kind: program.OpSend, Node: 0, Iter: 0, Peer: 1}, b0}},
		{Proc: 1, Instrs: []program.Instr{{Kind: program.OpRecv, Node: 0, Iter: 0, Peer: 0}, b0}},
	}
	r := NewRunner(g, progs, MixSemantics{})
	defer r.Close()
	if err := r.Pass(); err != nil {
		t.Fatal(err)
	}
	// The programs compute only A and B of iteration 0.
	want := SequentialTable(g, MixSemantics{}, 1)
	if err := r.Check(want); err == nil || !strings.Contains(err.Error(), "(C, iter 0) never computed") {
		t.Fatalf("Check = %v, want C of iteration 0 missing", err)
	}
	full := []program.Program{
		{Proc: 0, Instrs: append(progs[0].Instrs,
			program.Instr{Kind: program.OpCompute, Node: 2}, program.Instr{Kind: program.OpCompute, Node: 3}, program.Instr{Kind: program.OpCompute, Node: 4})},
		progs[1],
	}
	r = NewRunner(g, full, MixSemantics{})
	defer r.Close()
	if err := r.Pass(); err != nil {
		t.Fatal(err)
	}
	if err := r.Check(want); err != nil {
		t.Fatalf("Check of a correct pass: %v", err)
	}
	if err := r.Check(SequentialTable(g, MixSemantics{}, 0)); err == nil || !strings.Contains(err.Error(), "computed past the sequential's 0 iterations") {
		t.Fatalf("Check against no iterations = %v, want a computed-past error", err)
	}
	// Corrupt PE1's copy of B0; PE0's copy stays right.
	r.procs[1].vals[len(r.procs[1].vals)-1] += 1
	if err := r.Check(want); err == nil || !strings.Contains(err.Error(), "(B, iter 0)") || !strings.Contains(err.Error(), "on PE1") {
		t.Fatalf("Check with a wrong duplicate on PE1 = %v, want B of iteration 0 on PE1", err)
	}
}
