package plan

import (
	"strings"
	"testing"

	"mimdloop/internal/graph"
)

func chainGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	a := b.AddNode("A", 2)
	c := b.AddNode("B", 1)
	b.AddEdge(a, c, 0)
	b.AddEdge(c, a, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTimingAvail(t *testing.T) {
	e := graph.Edge{From: 0, To: 1, Distance: 0, Cost: graph.DefaultCost}
	p := Placement{Node: 0, Iter: 0, Proc: 0, Start: 5}
	tm := Timing{CommCost: 3}
	if got := tm.Avail(p, 2, e, 0); got != 7 {
		t.Fatalf("local avail = %d, want 7 (finish)", got)
	}
	if got := tm.Avail(p, 2, e, 1); got != 10 {
		t.Fatalf("cross avail = %d, want 10 (finish+k)", got)
	}
	// Edge cost override.
	e.Cost = 1
	if got := tm.Avail(p, 2, e, 1); got != 8 {
		t.Fatalf("cross avail with edge cost = %d, want 8", got)
	}
	// CommFromStart ablation.
	tm.CommFromStart = true
	e.Cost = graph.DefaultCost
	if got := tm.Avail(p, 2, e, 1); got != 8 {
		t.Fatalf("start+k avail = %d, want 8", got)
	}
}

func TestSequentialSchedule(t *testing.T) {
	g := chainGraph(t)
	s := Sequential(g, Timing{CommCost: 2}, 4)
	if err := s.Validate(true); err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(); got != 4*3 {
		t.Fatalf("makespan = %d, want 12", got)
	}
	if s.ProcsUsed() != 1 {
		t.Fatalf("procs used = %d", s.ProcsUsed())
	}
	if s.Iterations() != 4 {
		t.Fatalf("iterations = %d", s.Iterations())
	}
	if got := s.BusyCycles(); got != 12 {
		t.Fatalf("busy = %d", got)
	}
	if u := s.Utilization(); u != 1 {
		t.Fatalf("utilization = %v, want 1 for sequential", u)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	g := chainGraph(t)
	s := &Schedule{Graph: g, Timing: Timing{CommCost: 1}, Processors: 1, Placements: []Placement{
		{Node: 0, Iter: 0, Proc: 0, Start: 0},
		{Node: 1, Iter: 0, Proc: 0, Start: 1}, // A occupies [0,2)
	}}
	err := s.Validate(false)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("err = %v, want overlap", err)
	}
}

func TestValidateCatchesDependenceViolation(t *testing.T) {
	g := chainGraph(t)
	s := &Schedule{Graph: g, Timing: Timing{CommCost: 3}, Processors: 2, Placements: []Placement{
		{Node: 0, Iter: 0, Proc: 0, Start: 0},
		{Node: 1, Iter: 0, Proc: 1, Start: 3}, // needs finish(2)+k(3) = 5
	}}
	err := s.Validate(false)
	if err == nil || !strings.Contains(err.Error(), "available") {
		t.Fatalf("err = %v, want availability violation", err)
	}
	// Same schedule on one processor is fine.
	s.Placements[1].Proc = 0
	s.Placements[1].Start = 2
	if err := s.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	g := chainGraph(t)
	cases := []struct {
		name string
		pls  []Placement
		frag string
	}{
		{"unknown node", []Placement{{Node: 9, Iter: 0, Proc: 0, Start: 0}}, "unknown node"},
		{"negative iter", []Placement{{Node: 0, Iter: -1, Proc: 0, Start: 0}}, "negative iteration"},
		{"negative start", []Placement{{Node: 0, Iter: 0, Proc: 0, Start: -1}}, "negative cycle"},
		{"negative proc", []Placement{{Node: 0, Iter: 0, Proc: -1, Start: 0}}, "negative processor"},
		{"proc out of range", []Placement{{Node: 0, Iter: 0, Proc: 5, Start: 0}}, "declares"},
		{"duplicate", []Placement{
			{Node: 0, Iter: 0, Proc: 0, Start: 0},
			{Node: 0, Iter: 0, Proc: 1, Start: 0},
		}, "twice"},
		{"missing producer", []Placement{{Node: 1, Iter: 0, Proc: 0, Start: 9}}, "unplaced"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Schedule{Graph: g, Timing: Timing{CommCost: 1}, Processors: 2, Placements: tc.pls}
			err := s.Validate(false)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want containing %q", err, tc.frag)
			}
		})
	}
}

func TestValidateCompleteCount(t *testing.T) {
	g := chainGraph(t)
	s := &Schedule{Graph: g, Timing: Timing{CommCost: 1}, Processors: 1, Placements: []Placement{
		{Node: 0, Iter: 0, Proc: 0, Start: 0},
	}}
	if err := s.Validate(true); err == nil {
		t.Fatal("incomplete schedule accepted as complete")
	}
	if err := s.Validate(false); err != nil {
		t.Fatalf("prefix schedule rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := chainGraph(t)
	s := Sequential(g, Timing{}, 2)
	cp := s.Clone()
	cp.Placements[0].Start = 99
	if s.Placements[0].Start == 99 {
		t.Fatal("Clone aliases placements")
	}
}

func TestByProcAndIndex(t *testing.T) {
	g := chainGraph(t)
	s := &Schedule{Graph: g, Timing: Timing{CommCost: 0}, Processors: 2, Placements: []Placement{
		{Node: 0, Iter: 0, Proc: 1, Start: 0},
		{Node: 1, Iter: 0, Proc: 1, Start: 2},
	}}
	grp := s.ByProc()
	if len(grp) != 2 || len(grp[0]) != 0 || len(grp[1]) != 2 {
		t.Fatalf("ByProc = %v", grp)
	}
	idx, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Get(1, 0); got != 1 {
		t.Fatalf("Index(B, 0) = %d, want 1", got)
	}
	if got := idx.Get(0, 1); got != -1 {
		t.Fatalf("Index(A, 1) = %d, want -1 (unplaced, past the last iteration)", got)
	}
}
