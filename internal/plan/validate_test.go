package plan_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

// validateBases returns the schedules the mutation test and the fuzz
// seeds start from: Figure 7 on two processors, a grain-4 plan, and a
// folded plan with Flow-in and Flow-out nodes.
func validateBases(t testing.TB) map[string]*plan.Schedule {
	t.Helper()
	streams, err := workload.Streams(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*plan.Schedule{}
	for name, c := range map[string]goldenCase{
		"fig7":    {g: workload.Figure7().Graph, opts: core.Options{Processors: 2, CommCost: 2}, n: 12},
		"grain-4": {g: streams, opts: core.Options{CommCost: 2, Grain: 4}, n: 24},
		"folded":  {g: workload.Figure1(), opts: core.Options{CommCost: 2, FoldNonCyclic: true}, n: 12},
	} {
		ls, err := core.ScheduleLoop(c.g, c.opts, c.n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = ls.Full
	}
	return out
}

// mutation breaks one rule of a valid schedule; frag is a fragment of
// the error Validate must then report (complete says with complete set).
type mutation struct {
	name     string
	frag     string
	complete bool
	apply    func(s *plan.Schedule)
}

var mutations = []mutation{
	{"duplicate", "placed twice", false, func(s *plan.Schedule) {
		dup := s.Placements[0]
		dup.Proc, dup.Start = newProc(s), 1<<20
		s.Placements = append(s.Placements, dup)
	}},
	{"overlap", "overlap", false, func(s *plan.Schedule) {
		a := s.Placements[0]
		for i, b := range s.Placements {
			if b.Iter != a.Iter {
				s.Placements[i].Proc, s.Placements[i].Start = a.Proc, a.Start
				return
			}
		}
	}},
	{"dependence violation", "available", false, func(s *plan.Schedule) {
		c, prod := dependence(s)
		s.Placements[c].Proc, s.Placements[c].Start = newProc(s), s.Placements[prod].Start
	}},
	{"missing producer", "unplaced", false, func(s *plan.Schedule) {
		_, prod := dependence(s)
		s.Placements = append(s.Placements[:prod], s.Placements[prod+1:]...)
	}},
	{"unknown node", "unknown node", false, func(s *plan.Schedule) { s.Placements[3].Node = s.EffectiveGraph().N() }},
	{"negative node", "unknown node", false, func(s *plan.Schedule) { s.Placements[3].Node = -1 }},
	{"negative iteration", "negative iteration", false, func(s *plan.Schedule) { s.Placements[3].Iter = -1 }},
	{"negative start", "negative cycle", false, func(s *plan.Schedule) { s.Placements[3].Start = -1 }},
	{"negative processor", "negative processor", false, func(s *plan.Schedule) { s.Placements[3].Proc = -1 }},
	{"undeclared processor", "declares", false, func(s *plan.Schedule) { s.Placements[3].Proc = s.Processors }},
	{"duplicate before a bad field", "placed twice", false, func(s *plan.Schedule) {
		dup := s.Placements[0]
		dup.Proc, dup.Start = newProc(s), 1<<20
		s.Placements = append(s.Placements[:1], append([]plan.Placement{dup}, s.Placements[1:]...)...)
		s.Placements[5].Start = -1
	}},
	{"bad field before a duplicate", "negative cycle", false, func(s *plan.Schedule) {
		dup := s.Placements[0]
		dup.Proc, dup.Start = newProc(s), 1<<20
		s.Placements = append(s.Placements, dup)
		s.Placements[1].Start = -1
	}},
	{"incomplete count", "placements for", true, func(s *plan.Schedule) {
		leaf := len(s.Placements) - 1
		for consumedAny(s, leaf) {
			leaf--
		}
		s.Placements = append(s.Placements[:leaf], s.Placements[leaf+1:]...)
	}},
}

// newProc declares one more processor and returns it.
func newProc(s *plan.Schedule) int {
	s.Processors++
	return s.Processors - 1
}

// dependence returns a consumer placement and the placement producing one
// of its inputs.
func dependence(s *plan.Schedule) (consumer, producer int) {
	g := s.EffectiveGraph()
	for c, p := range s.Placements {
		for _, ei := range g.In(p.Node) {
			e := g.Edges[ei]
			for pi, q := range s.Placements {
				if q.Node == e.From && q.Iter == p.Iter-e.Distance {
					return c, pi
				}
			}
		}
	}
	panic("plan: schedule has no dependence")
}

// consumedAny reports whether any placement consumes placement i's value.
func consumedAny(s *plan.Schedule, i int) bool {
	g := s.EffectiveGraph()
	prod := s.Placements[i]
	for _, ei := range g.Out(prod.Node) {
		e := g.Edges[ei]
		for _, p := range s.Placements {
			if p.Node == e.To && p.Iter == prod.Iter+e.Distance {
				return true
			}
		}
	}
	return false
}

// TestValidateMutationsMatchReference breaks each rule Validate checks,
// and two orders of rules, in valid schedules: Validate must report the
// expected error with the reference's exact text, complete or not.
func TestValidateMutationsMatchReference(t *testing.T) {
	for base, s := range validateBases(t) {
		for _, m := range mutations {
			name := base + "/" + m.name
			ms := s.Clone()
			m.apply(ms)
			if err := ms.Validate(m.complete); err == nil || !strings.Contains(err.Error(), m.frag) {
				t.Fatalf("%s: Validate(%v) = %v, want an error containing %q", name, m.complete, err, m.frag)
			}
			sameVerdict(t, name, ms, false)
			sameVerdict(t, name, ms, true)
		}
	}
}

// TestValidateRefusesSparseSchedule pins the one refusal the dense
// instance table adds: a placement far past what its schedule's size can
// justify is refused before a table spanning it is allocated, with the
// count error when the schedule should be complete.
func TestValidateRefusesSparseSchedule(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddNode("A", 1)
	b.AddEdge(a, b.AddNode("B", 1), 0)
	s := &plan.Schedule{Graph: b.MustBuild(), Processors: 1, Placements: []plan.Placement{{Node: a, Iter: 1 << 40}}}

	if err := s.Validate(false); !errors.Is(err, plan.ErrSparse) {
		t.Fatalf("Validate(false) = %v, want ErrSparse", err)
	}
	sameVerdict(t, "sparse", s, true)
	if _, err := s.Index(); !errors.Is(err, plan.ErrSparse) {
		t.Fatalf("Index = %v, want ErrSparse", err)
	}
	if _, err := program.Build(s); !errors.Is(err, plan.ErrSparse) {
		t.Fatalf("Build = %v, want ErrSparse", err)
	}

	validate := func() {
		s.Validate(false)
		s.Validate(true)
	}
	allocs := testing.AllocsPerRun(20, validate)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		validate()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / 20
	// The two errors' formatting: 12 allocations, 467 bytes; -race adds a
	// few allocations where sync.Pool drops fmt's printers. A table
	// spanning the placement would take 8 TiB.
	const allocBudget, byteBudget = 32, 4 << 10
	t.Logf("refusing a placement at iteration 1<<40: %.0f allocs, %d bytes", allocs, perRun)
	if allocs > allocBudget || perRun > byteBudget {
		t.Fatalf("refusal allocates %.0f times, %d bytes; budget %d and %d", allocs, perRun, allocBudget, byteBudget)
	}
}

// maxFuzzProcs bounds the processor numbers of a schedule the fuzz
// target compares: the reference Validate groups placements in a slice
// per processor, and Build returns a program per processor by contract.
const maxFuzzProcs = 1 << 12

// FuzzValidateSchedule decodes arbitrary bytes as a schedule and checks
// that Validate, complete or not, never panics and agrees with the
// reference up to two documented differences: the sparse refusal, and
// which overlapping pair of one processor is named when two placements
// there tie on (start, iteration). A schedule Validate accepts must
// lower to exactly the reference's programs.
func FuzzValidateSchedule(f *testing.F) {
	for _, s := range validateBases(f) {
		data, err := s.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		for _, m := range mutations {
			ms := s.Clone()
			m.apply(ms)
			data, err := ms.MarshalJSON()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s plan.Schedule
		if s.UnmarshalJSON(data) != nil {
			return
		}
		sparse := errors.Is(s.Validate(false), plan.ErrSparse)
		comparable := !sparse && procSpan(&s) <= maxFuzzProcs
		for _, complete := range []bool{false, true} {
			got := s.Validate(complete)
			if !comparable {
				continue
			}
			if want := refValidate(&s, complete); !sameError(got, want) {
				t.Fatalf("Validate(%v) = %v, reference %v", complete, got, want)
			}
		}
		if !comparable || s.Validate(false) != nil {
			return
		}
		got, gerr := program.Build(&s)
		want, werr := refBuild(&s)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Build differs from the reference (errors %v / %v)", gerr, werr)
		}
	})
}

// procSpan returns the declared processor count, or the largest
// processor number + 1 if larger.
func procSpan(s *plan.Schedule) int {
	n := s.Processors
	for _, p := range s.Placements {
		n = max(n, p.Proc+1)
	}
	return n
}

// sameError reports whether Validate's error matches the reference's:
// the same text, or overlaps reported on the same processor. ByProc
// orders placements that tie on (start, iteration) by node, where the
// reference's unstable sort left them in either order, so a tie may
// name a different overlapping pair; the first processor with an
// overlap is the same.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	if got.Error() == want.Error() {
		return true
	}
	pg, pw := overlapProc(got), overlapProc(want)
	return pg >= 0 && pg == pw
}

// overlapProc returns the processor an overlap error names, or -1.
func overlapProc(err error) int {
	var proc int
	if _, serr := fmt.Sscanf(err.Error(), "plan: processor %d overlap", &proc); serr != nil {
		return -1
	}
	return proc
}
