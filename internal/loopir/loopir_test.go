package loopir

import (
	"math"
	"strings"
	"testing"

	"mimdloop/internal/classify"
	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/program"
)

const fig7Src = `
// Paper Figure 7(a).
loop fig7(N = 100) {
    A[i] = A[i-1] + E[i-1]
    B[i] = A[i]
    C[i] = B[i]
    D[i] = D[i-1] + C[i-1]
    E[i] = D[i]
}
`

func TestParseFigure7(t *testing.T) {
	l, err := Parse(fig7Src)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "fig7" || l.N != 100 || len(l.Stmts) != 5 {
		t.Fatalf("parsed %s N=%d stmts=%d", l.Name, l.N, len(l.Stmts))
	}
	if l.Stmts[0].Target != "A" || l.Stmts[0].Latency != 1 {
		t.Fatalf("stmt 0: %+v", l.Stmts[0])
	}
	if !l.Defined("E") || l.Defined("Z") {
		t.Fatal("Defined misreports")
	}
	// Round trip: String() must re-parse to the same shape.
	l2, err := Parse(l.String())
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, l.String())
	}
	if len(l2.Stmts) != len(l.Stmts) {
		t.Fatalf("round trip changed statement count")
	}
}

func TestCompileFigure7Graph(t *testing.T) {
	c := MustCompile(fig7Src)
	g := c.Graph
	if g.N() != 5 {
		t.Fatalf("nodes = %d, want 5", g.N())
	}
	// Expected edges: A->A(1), E->A(1), A->B(0), B->C(0), D->D(1),
	// C->D(1), D->E(0).
	if len(g.Edges) != 7 {
		t.Fatalf("edges = %d, want 7:\n%s", len(g.Edges), g.Format())
	}
	cls := classify.Partition(g)
	if len(cls.Cyclic) != 5 {
		t.Fatalf("classification = %v, want all Cyclic", cls)
	}
	// Latency annotations default to 1.
	for _, nd := range g.Nodes {
		if nd.Latency != 1 {
			t.Fatalf("latency of %s = %d", nd.Name, nd.Latency)
		}
	}
}

func TestLatencyAnnotation(t *testing.T) {
	c := MustCompile(`loop l { X[i] = X[i-1] * 2.0 @lat(3) }`)
	if c.Graph.Nodes[0].Latency != 3 {
		t.Fatalf("latency = %d, want 3", c.Graph.Nodes[0].Latency)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, frag string
	}{
		{"empty", ``, "loop"},
		{"no body", `loop l {}`, "no statements"},
		{"double assign", `loop l { X[i] = 1.0
			X[i] = 2.0 }`, "twice"},
		{"self zero", `loop l { X[i] = X[i] + 1.0 }`, "own definition"},
		{"bad index", `loop l { X[j] = 1.0 }`, `"i"`},
		{"bad offset", `loop l { X[i] = X[i-1.5] }`, "offset"},
		{"bad header", `loop l(M = 3) { X[i] = 1.0 }`, `"N"`},
		{"bad latency", `loop l { X[i] = 1.0 @lat(0) }`, "latency"},
		{"bad annotation", `loop l { X[i] = 1.0 @foo(1) }`, "@lat"},
		{"trailing", `loop l { X[i] = 1.0 } extra`, "trailing"},
		{"unterminated", `loop l { X[i] = 1.0`, "unterminated"},
		{"bad char", `loop l { X[i] = 1.0 ; }`, "unexpected character"},
		{"missing op", `loop l { if (X[i-1]) X[i] = 1.0 }`, "comparison"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want containing %q", err, tc.frag)
			}
		})
	}
}

func TestInterpretRecurrence(t *testing.T) {
	// X[i] = X[i-1] + 1 with Initial(X, -1) = v0: X[n-1] = v0 + n.
	c := MustCompile(`loop count { X[i] = X[i-1] + 1.0 }`)
	c.Initial = func(string, int) float64 { return 10 }
	vals := c.Interpret(5)
	got := vals[graph.InstanceID{Node: 0, Iter: 4}]
	if got != 15 {
		t.Fatalf("X[4] = %v, want 15", got)
	}
	final := c.FinalValues(vals, 5)
	if final["X"] != 15 {
		t.Fatalf("FinalValues = %v", final)
	}
}

func TestInterpretExpressions(t *testing.T) {
	c := MustCompile(`loop e { X[i] = (2.0 + 3.0) * 2.0 - 6.0 / 2.0
		Y[i] = -X[i] }`)
	vals := c.Interpret(1)
	if got := vals[graph.InstanceID{Node: 0, Iter: 0}]; got != 7 {
		t.Fatalf("X = %v, want 7", got)
	}
	if got := vals[graph.InstanceID{Node: 1, Iter: 0}]; got != -7 {
		t.Fatalf("Y = %v, want -7", got)
	}
}

func TestParamsAndInputs(t *testing.T) {
	c := MustCompile(`loop p { X[i] = alpha * U[i-1] }`)
	c.Param = func(name string) float64 { return 4 }
	c.Input = func(name string, idx int) float64 { return float64(idx) }
	vals := c.Interpret(3)
	// X[2] = 4 * U[1] = 4.
	if got := vals[graph.InstanceID{Node: 0, Iter: 2}]; got != 4 {
		t.Fatalf("X[2] = %v, want 4", got)
	}
	// No edges: U is external, alpha is a scalar.
	if len(c.Graph.Edges) != 0 {
		t.Fatalf("edges = %v, want none", c.Graph.Edges)
	}
}

func TestIfConversion(t *testing.T) {
	src := `loop cond {
		A[i] = A[i-1] + 1.0
		if (A[i] > 3.0) S[i] = S[i-1] + A[i]
	}`
	c := MustCompile(src)
	g := c.Graph
	// Nodes: A, S? (cond), S (select).
	if g.N() != 3 {
		t.Fatalf("nodes = %d, want 3:\n%s", g.N(), g.Format())
	}
	condNode := c.CondNode[1]
	if condNode < 0 {
		t.Fatal("guarded statement has no condition node")
	}
	if c.Info[condNode].Kind != NodeCond {
		t.Fatal("condition node mislabeled")
	}
	// Edges: A->A(1), A->S?(0), S?->S(0), S->S(1), A->S(0).
	if len(g.Edges) != 5 {
		t.Fatalf("edges = %d, want 5:\n%s", len(g.Edges), g.Format())
	}
	// Semantics: guard false keeps previous value.
	c.Initial = func(name string, idx int) float64 { return 0 }
	vals := c.Interpret(6)
	// A: 1,2,3,4,5,6. Guard A>3: false,false,false,true,true,true.
	// S: 0,0,0,4,9,15.
	sNode := c.AssignNode[1]
	want := []float64{0, 0, 0, 4, 9, 15}
	for i, w := range want {
		if got := vals[graph.InstanceID{Node: sNode, Iter: i}]; got != w {
			t.Fatalf("S[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestIfConvertedLoopSchedulesAndRuns(t *testing.T) {
	// End to end: guarded loop -> if-convert -> schedule -> programs ->
	// concurrent execution == interpreter.
	src := `loop guarded {
		A[i] = A[i-1] + 1.0
		B[i] = A[i] * 0.5
		if (B[i] > 2.0) S[i] = S[i-1] + B[i]
		T[i] = S[i] - B[i]
	}`
	c := MustCompile(src)
	n := 30
	ls, err := core.ScheduleLoop(c.Graph, core.Options{Processors: 2, CommCost: 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(ls.Full)
	if err != nil {
		t.Fatal(err)
	}
	r := mimdrt.NewRunner(c.Graph, progs, c)
	defer r.Close()
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := c.Interpret(n)
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Fatalf("%+v = %v, want %v", k, got[k], w)
		}
	}
}

func TestFigure7EndToEndValues(t *testing.T) {
	c := MustCompile(fig7Src)
	n := 50
	res, err := core.CyclicSched(c.Graph, core.Options{Processors: 2, CommCost: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.Expand(n)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := program.Build(s)
	if err != nil {
		t.Fatal(err)
	}
	r := mimdrt.NewRunner(c.Graph, progs, c)
	defer r.Close()
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := c.Interpret(n)
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-6*math.Max(1, math.Abs(w)) {
			t.Fatalf("%+v = %v, want %v", k, got[k], w)
		}
	}
}

func TestDivisionByZeroIsInf(t *testing.T) {
	c := MustCompile(`loop z { X[i] = 1.0 / 0.0 }`)
	vals := c.Interpret(1)
	if !math.IsInf(vals[graph.InstanceID{Node: 0, Iter: 0}], 1) {
		t.Fatal("1/0 not +Inf")
	}
}

func TestExprString(t *testing.T) {
	l := MustParse(`loop s { if (A[i-1] >= 2.0) X[i] = -A[i-2] * (p + 1.0) }`)
	s := l.Stmts[0]
	if got := s.Cond.String(); got != "(A[i-1] >= 2)" {
		t.Fatalf("cond = %q", got)
	}
	if got := s.RHS.String(); got != "(-A[i-2] * (p + 1))" {
		t.Fatalf("rhs = %q", got)
	}
}
