package graph

import (
	"strings"
	"testing"
)

func mustBuild(t *testing.T, nodes []Node, edges []Edge) *Graph {
	t.Helper()
	g, err := New(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestChunkedEdgeMapping pins the distance arithmetic: d = q*G + s maps
// to chunk distance q when s == 0 and to the pair {q, q+1} otherwise,
// latencies fold G-fold, and zero-distance chunk self-edges vanish.
func TestChunkedEdgeMapping(t *testing.T) {
	g := mustBuild(t,
		[]Node{{ID: 0, Name: "a", Latency: 2}, {ID: 1, Name: "b", Latency: 3}},
		[]Edge{
			{From: 0, To: 0, Distance: 1},  // self recurrence: folds into the chunk
			{From: 0, To: 1, Distance: 0},  // chain link: stays at distance 0
			{From: 0, To: 1, Distance: 6},  // s == 0 at grain 3: exactly q = 2
			{From: 1, To: 0, Distance: 7},  // s != 0 at grain 3: q = 2 and q+1 = 3
			{From: 1, To: 1, Distance: 12}, // self, s == 0: q = 4 survives
		})
	cg, err := Chunked(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Nodes[0].Latency != 6 || cg.Nodes[1].Latency != 9 {
		t.Fatalf("latencies not folded: %d, %d", cg.Nodes[0].Latency, cg.Nodes[1].Latency)
	}
	want := map[Edge]bool{
		{From: 0, To: 0, Distance: 1}: true, // ceil(1/3) via the q+1 branch (q=0 self dropped)
		{From: 0, To: 1, Distance: 0}: true,
		{From: 0, To: 1, Distance: 2}: true,
		{From: 1, To: 0, Distance: 2}: true,
		{From: 1, To: 0, Distance: 3}: true,
		{From: 1, To: 1, Distance: 4}: true,
	}
	if len(cg.Edges) != len(want) {
		t.Fatalf("edges = %+v, want %d of them", cg.Edges, len(want))
	}
	for _, e := range cg.Edges {
		if !want[Edge{From: e.From, To: e.To, Distance: e.Distance, Cost: e.Cost}] {
			t.Fatalf("unexpected chunk edge %+v (all: %+v)", e, cg.Edges)
		}
	}
}

// TestChunkedIdentityAndDedup pins grain <= 1 as the identity and the
// deduplication of mapped edges that collide.
func TestChunkedIdentityAndDedup(t *testing.T) {
	g := mustBuild(t,
		[]Node{{ID: 0, Name: "a", Latency: 1}, {ID: 1, Name: "b", Latency: 1}},
		[]Edge{
			{From: 0, To: 1, Distance: 2}, // at grain 2: q=1
			{From: 0, To: 1, Distance: 3}, // at grain 2: {1, 2} — 1 collides
			{From: 1, To: 1, Distance: 1},
		})
	for _, grain := range []int{0, 1} {
		if cg, err := Chunked(g, grain); err != nil || cg != g {
			t.Fatalf("grain %d: got (%p, %v), want identity", grain, cg, err)
		}
	}
	cg, err := Chunked(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	dist := map[int]int{}
	for _, e := range cg.Edges {
		if e.From == 0 && e.To == 1 {
			dist[e.Distance]++
		}
	}
	if len(dist) != 2 || dist[1] != 1 || dist[2] != 1 {
		t.Fatalf("a->b chunk distances = %v, want exactly {1, 2}", dist)
	}
}

// TestChunkedInfeasibleGrain pins the rejection of grains that fold a
// cross-node dependence cycle into distance zero.
func TestChunkedInfeasibleGrain(t *testing.T) {
	g := mustBuild(t,
		[]Node{{ID: 0, Name: "a", Latency: 1}, {ID: 1, Name: "b", Latency: 1}},
		[]Edge{
			{From: 0, To: 1, Distance: 0},
			{From: 1, To: 0, Distance: 1}, // cycle a -> b -> a, total distance 1
		})
	if _, err := Chunked(g, 1); err != nil {
		t.Fatalf("grain 1 must stay feasible: %v", err)
	}
	_, err := Chunked(g, 2)
	if err == nil {
		t.Fatal("grain 2 accepted despite a zero-distance chunk cycle")
	}
	if !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("unexpected error: %v", err)
	}
}
