package pipeline

import (
	"fmt"
	"sync"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/machine"
	"mimdloop/internal/metrics"
	"mimdloop/internal/program"
	"mimdloop/internal/workload"
)

var fig7Opts = core.Options{Processors: 2, CommCost: 2}

func TestScheduleCacheHitMiss(t *testing.T) {
	p := New(Config{})
	g := workload.Figure7().Graph

	plan1, hit, err := p.Schedule(g, fig7Opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request reported a cache hit")
	}
	if plan1.Rate() != 3 {
		t.Fatalf("rate = %v, want 3 (Figure 7 at p=2, k=2)", plan1.Rate())
	}
	if len(plan1.Programs) == 0 {
		t.Fatal("plan has no lowered programs")
	}

	plan2, hit, err := p.Schedule(g, fig7Opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("identical request missed the cache")
	}
	if plan1 != plan2 {
		t.Fatal("cache hit returned a different plan value")
	}

	// Same content, different graph pointer: still a hit.
	if _, hit, err = p.Schedule(workload.Figure7().Graph, fig7Opts, 100); err != nil || !hit {
		t.Fatalf("content-equal graph: hit=%v err=%v", hit, err)
	}

	// Different options or iteration count: miss.
	if _, hit, err = p.Schedule(g, core.Options{Processors: 3, CommCost: 2}, 100); err != nil || hit {
		t.Fatalf("changed processors: hit=%v err=%v", hit, err)
	}
	if _, hit, err = p.Schedule(g, fig7Opts, 50); err != nil || hit {
		t.Fatalf("changed iterations: hit=%v err=%v", hit, err)
	}

	s := p.Stats()
	if s.Hits != 2 || s.Misses != 3 || s.Computes != 3 || s.Entries != 3 {
		t.Fatalf("stats = %+v", s)
	}
	// Each uncontended cold miss probes the store once: no flight landed
	// between its probe and its own flight, so it does not probe again.
	if s.Store.Hits != 2 || s.Store.Misses != 3 {
		t.Fatalf("store stats = %+v, want 2 hits and 3 misses", s.Store)
	}
	if got := s.HitRate(); got != 0.4 {
		t.Fatalf("hit rate = %v, want 0.4", got)
	}
}

func TestScheduleMatchesDirectPath(t *testing.T) {
	p := New(Config{})
	g := workload.Livermore18().Graph
	opts := core.Options{Processors: 2, CommCost: 2, FoldNonCyclic: true}
	plan, _, err := p.Schedule(g, opts, 60)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ScheduleLoop(g, opts, 60)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rate() != want.RatePerIteration() {
		t.Fatalf("rate %v != direct %v", plan.Rate(), want.RatePerIteration())
	}
	if plan.Schedule.Full.Makespan() != want.Full.Makespan() {
		t.Fatalf("makespan %d != direct %d", plan.Schedule.Full.Makespan(), want.Full.Makespan())
	}
	wantProgs, err := program.Build(want.Full)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Programs) != len(wantProgs) {
		t.Fatalf("programs %d != direct %d", len(plan.Programs), len(wantProgs))
	}
}

func TestScheduleErrorNotCached(t *testing.T) {
	p := New(Config{})
	g := workload.Figure7().Graph
	if _, _, err := p.Schedule(g, fig7Opts, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, _, err := p.Schedule(g, core.Options{Processors: -1}, 10); err == nil {
		t.Fatal("negative processors accepted")
	}
	if s := p.Stats(); s.Entries != 0 {
		t.Fatalf("failed requests left %d cache entries", s.Entries)
	}
}

func TestDisableCache(t *testing.T) {
	p := New(Config{DisableCache: true})
	g := workload.Figure7().Graph
	for i := 0; i < 3; i++ {
		if _, hit, err := p.Schedule(g, fig7Opts, 100); err != nil || hit {
			t.Fatalf("pass-through pipeline: hit=%v err=%v", hit, err)
		}
	}
	if s := p.Stats(); s.Computes != 3 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEvictionBoundsEntries(t *testing.T) {
	// MaxEntries below the shard count must still be honored exactly:
	// the shard count shrinks to match.
	for _, max := range []int{4, 16, 40} {
		p := New(Config{MaxEntries: max})
		g := workload.Figure7().Graph
		for n := 1; n <= 64; n++ {
			if _, _, err := p.Schedule(g, fig7Opts, n); err != nil {
				t.Fatal(err)
			}
		}
		s := p.Stats()
		if s.Entries > max {
			t.Fatalf("MaxEntries=%d: entries = %d", max, s.Entries)
		}
		if s.Evictions == 0 {
			t.Fatalf("MaxEntries=%d: no evictions recorded", max)
		}
	}
}

func TestNegativeMaxEntriesDefaults(t *testing.T) {
	p := New(Config{MaxEntries: -5}) // must not panic; treated as default
	if _, hit, err := p.Schedule(workload.Figure7().Graph, fig7Opts, 10); err != nil || hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if s := p.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d", s.Entries)
	}
}

func TestScheduleJSONMemoized(t *testing.T) {
	p := New(Config{})
	plan, _, err := p.Schedule(workload.Figure7().Graph, fig7Opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := plan.ScheduleJSON()
	if err != nil || len(b1) == 0 {
		t.Fatalf("ScheduleJSON: %v", err)
	}
	b2, _ := plan.ScheduleJSON()
	if &b1[0] != &b2[0] {
		t.Fatal("repeat call re-marshaled the schedule")
	}
}

// fig7PlanBytes builds one Figure 7 plan at n iterations off to the side
// and reports its budget weight, so byte-bound tests track planBytes
// instead of hard-coding its constants.
func fig7PlanBytes(t *testing.T, n int) int64 {
	t.Helper()
	plan, _, err := New(Config{DisableCache: true}).Schedule(workload.Figure7().Graph, fig7Opts, n)
	if err != nil {
		t.Fatal(err)
	}
	return planBytes(plan)
}

// TestByteBudgetBoundsMemory checks the size-weighted eviction: many
// large plans cannot accumulate past the byte budget even when the
// entry-count limit would admit them.
func TestByteBudgetBoundsMemory(t *testing.T) {
	// A per-shard budget of 1.25× the largest plan fits any single plan
	// of n < 120 but never two (weights scale ~linearly with n, and
	// 2 × w(90) > 1.25 × w(119)), so entries stay at one per shard.
	w := fig7PlanBytes(t, 119)
	p := New(Config{MaxEntries: 1024, MaxBytes: maxMemShards * (w + w/4)})
	g := workload.Figure7().Graph
	for n := 90; n < 120; n++ {
		if _, _, err := p.Schedule(g, fig7Opts, n); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.Entries > maxMemShards {
		t.Fatalf("entries = %d, want <= one per shard under a tiny budget", s.Entries)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if s.Store.Bytes > maxMemShards*(w+w/4) {
		t.Fatalf("store bytes %d over budget", s.Store.Bytes)
	}
	// The cache still serves: the most recent request is retained.
	if _, hit, err := p.Schedule(g, fig7Opts, 119); err != nil || !hit {
		t.Fatalf("most recent plan evicted: hit=%v err=%v", hit, err)
	}
}

// TestOversizedPlanNotCached checks a plan exceeding the entire shard
// budget is served but never cached — it must not drain warm entries to
// make room it can never fit in.
func TestOversizedPlanNotCached(t *testing.T) {
	// MaxEntries 1024 spreads MaxBytes over 16 shards, so a budget of
	// half one plan leaves every shard far below a single plan's weight.
	p := New(Config{MaxEntries: 1024, MaxBytes: fig7PlanBytes(t, 100) / 2})
	g := workload.Figure7().Graph
	for i := 0; i < 2; i++ {
		plan, hit, err := p.Schedule(g, fig7Opts, 100)
		if err != nil || hit || plan.Rate() != 3 {
			t.Fatalf("request %d: hit=%v err=%v", i, hit, err)
		}
	}
	if s := p.Stats(); s.Entries != 0 {
		t.Fatalf("oversized plans cached: entries = %d", s.Entries)
	}
}

func TestFlush(t *testing.T) {
	p := New(Config{})
	g := workload.Figure7().Graph
	if _, _, err := p.Schedule(g, fig7Opts, 100); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if s := p.Stats(); s.Entries != 0 {
		t.Fatalf("entries after flush = %d", s.Entries)
	}
	if _, hit, err := p.Schedule(g, fig7Opts, 100); err != nil || hit {
		t.Fatalf("post-flush request: hit=%v err=%v", hit, err)
	}
}

// TestConcurrentSingleflight hammers a small key set from many goroutines
// (run with -race) and checks each distinct key was computed exactly once.
func TestConcurrentSingleflight(t *testing.T) {
	p := New(Config{})
	g := workload.Figure7().Graph
	const (
		goroutines = 16
		distinctN  = 4
		rounds     = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 10 + (gi+r)%distinctN
				plan, _, err := p.Schedule(g, fig7Opts, n)
				if err != nil {
					errs <- err
					return
				}
				if plan.Rate() != 3 {
					errs <- fmt.Errorf("rate = %v at n=%d", plan.Rate(), n)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Computes != distinctN {
		t.Fatalf("computes = %d, want %d (singleflight)", s.Computes, distinctN)
	}
	if s.Hits+s.Misses != goroutines*rounds {
		t.Fatalf("requests accounted = %d, want %d", s.Hits+s.Misses, goroutines*rounds)
	}
}

func TestCompileAndSchedule(t *testing.T) {
	p := New(Config{})
	const src = `loop f(N = 100) {
	    A[i] = A[i-1] + E[i-1]
	    B[i] = A[i]
	    C[i] = B[i]
	    D[i] = D[i-1] + C[i-1]
	    E[i] = D[i]
	}`
	c1, plan, hit, err := p.CompileAndSchedule(src, fig7Opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if hit || plan.Rate() != 3 || c1.Loop.Name != "f" {
		t.Fatalf("first compile: hit=%v rate=%v name=%q", hit, plan.Rate(), c1.Loop.Name)
	}
	c2, _, hit, err := p.CompileAndSchedule(src, fig7Opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second request missed the plan cache")
	}
	if c1 != c2 {
		t.Fatal("compile cache returned a fresh compilation")
	}
	if _, _, _, err := p.CompileAndSchedule("loop ???", fig7Opts, 10); err == nil {
		t.Fatal("bad source accepted")
	}
}

// TestCompileCacheLRU checks overflow evicts the oldest source only, and
// repeat compiles of a retained source keep returning one pointer.
func TestCompileCacheLRU(t *testing.T) {
	p := New(Config{MaxEntries: 2})
	src := func(i int) string {
		return fmt.Sprintf("loop s%d(N = 4) {\n A[i] = A[i-1] + U[i]\n}", i)
	}
	c1, err := p.Compile(src(1))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Compile(src(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compile(src(3)); err != nil { // evicts src(1)
		t.Fatal(err)
	}
	if again, _ := p.Compile(src(2)); again != c2 {
		t.Fatal("retained source was re-compiled")
	}
	if again, _ := p.Compile(src(1)); again == c1 {
		t.Fatal("evicted source returned the stale compilation")
	}
}

func TestGrid(t *testing.T) {
	pts := Grid([]int{2, 4}, []int{1, 3})
	want := []Point{{2, 1, 0}, {2, 3, 0}, {4, 1, 0}, {4, 3, 0}}
	if len(pts) != len(want) {
		t.Fatalf("points = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("points[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

// TestSweepMatchesSerial checks the worker pool reproduces exactly what
// the serial loops it replaced produced: same rates, same simulated
// makespans, in grid order.
func TestSweepMatchesSerial(t *testing.T) {
	g := workload.Figure7().Graph
	points := Grid([]int{2, 3, 4}, []int{1, 2, 3})
	const iters = 40

	p := New(Config{})
	got := p.Sweep(g, points, SweepOptions{Iterations: iters, Simulate: true})
	if len(got) != len(points) {
		t.Fatalf("results = %d, want %d", len(got), len(points))
	}

	seq := iters * g.TotalLatency()
	for i, pt := range points {
		r := got[i]
		if r.Err != nil {
			t.Fatalf("point %v: %v", pt, r.Err)
		}
		if r.Point != pt {
			t.Fatalf("result %d out of order: %v vs %v", i, r.Point, pt)
		}
		ls, err := core.ScheduleLoop(g, core.Options{Processors: pt.Processors, CommCost: pt.CommCost}, iters)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rate != ls.RatePerIteration() {
			t.Fatalf("point %v: rate %v, serial %v", pt, r.Rate, ls.RatePerIteration())
		}
		progs, err := program.Build(ls.Full)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := machine.Run(g, progs, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r.SimMakespan != stats.Makespan {
			t.Fatalf("point %v: makespan %d, serial %d", pt, r.SimMakespan, stats.Makespan)
		}
		wantSp := metrics.ClampZero(metrics.PercentParallelism(seq, stats.Makespan))
		if r.Sp != wantSp {
			t.Fatalf("point %v: Sp %v, serial %v", pt, r.Sp, wantSp)
		}
	}

	// A second sweep over the same grid is all cache hits.
	again := p.Sweep(g, points, SweepOptions{Iterations: iters, Simulate: true})
	for i, r := range again {
		if !r.CacheHit {
			t.Fatalf("second sweep point %v missed the cache", points[i])
		}
	}
}

func TestSweepWorkerCounts(t *testing.T) {
	g := workload.Figure7().Graph
	points := Grid([]int{2, 4}, []int{1, 2, 4})
	serial := New(Config{}).Sweep(g, points, SweepOptions{Iterations: 20, Workers: 1})
	wide := New(Config{}).Sweep(g, points, SweepOptions{Iterations: 20, Workers: 8})
	for i := range serial {
		if serial[i].Err != nil || wide[i].Err != nil {
			t.Fatalf("point %d errored: %v / %v", i, serial[i].Err, wide[i].Err)
		}
		if serial[i].Rate != wide[i].Rate || serial[i].Procs != wide[i].Procs {
			t.Fatalf("point %d: workers=1 %+v, workers=8 %+v", i, serial[i], wide[i])
		}
	}
}

func TestSweepEmptyAndErrors(t *testing.T) {
	p := New(Config{})
	g := workload.Figure7().Graph
	if res := p.Sweep(g, nil, SweepOptions{}); len(res) != 0 {
		t.Fatalf("empty grid: %v", res)
	}
	res := p.Sweep(g, []Point{{Processors: -1, CommCost: 2}, {Processors: 2, CommCost: 2}}, SweepOptions{Iterations: 10})
	if res[0].Err == nil {
		t.Fatal("invalid point did not error")
	}
	if res[1].Err != nil || res[1].Rate != 3 {
		t.Fatalf("valid point poisoned: %+v", res[1])
	}
}
