package pipeline

import (
	"net/http"
	"runtime"
	"testing"

	"mimdloop/internal/core"
	"mimdloop/internal/exec"
	"mimdloop/internal/workload"
)

// BenchmarkScheduleCold measures the uncached pipeline on the Figure 7
// workload: classify + Cyclic-sched + compose + lower on every request
// (the seed's only mode of operation).
func BenchmarkScheduleCold(b *testing.B) {
	p := New(Config{DisableCache: true})
	g := workload.Figure7().Graph
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Schedule(g, fig7Opts, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleCacheHit measures the steady-state serving path: the
// same request against a warm cache. The acceptance bar for this PR is
// >= 10x faster than BenchmarkScheduleCold; in practice the gap is orders
// of magnitude (a fingerprint plus a sharded map lookup).
func BenchmarkScheduleCacheHit(b *testing.B) {
	p := New(Config{})
	g := workload.Figure7().Graph
	if _, _, err := p.Schedule(g, fig7Opts, 100); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, hit, err := p.Schedule(g, fig7Opts, 100)
		if err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkScheduleCacheHitParallel is the serving path under concurrent
// clients, as the HTTP server sees it.
func BenchmarkScheduleCacheHitParallel(b *testing.B) {
	p := New(Config{})
	g := workload.Figure7().Graph
	if _, _, err := p.Schedule(g, fig7Opts, 100); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, hit, err := p.Schedule(g, fig7Opts, 100); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}

var sweepPoints = Grid([]int{2, 3, 4, 6, 8}, []int{0, 1, 2, 3, 4, 5})

// BenchmarkSweepSerial is the seed-equivalent parameter study: every grid
// point scheduled one after another, no cache.
func BenchmarkSweepSerial(b *testing.B) {
	g := workload.Figure7().Graph
	for i := 0; i < b.N; i++ {
		p := New(Config{DisableCache: true})
		res := p.Sweep(g, sweepPoints, SweepOptions{Iterations: 100, Workers: 1})
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkSweepConcurrent runs the same grid on the worker pool.
func BenchmarkSweepConcurrent(b *testing.B) {
	g := workload.Figure7().Graph
	for i := 0; i < b.N; i++ {
		p := New(Config{DisableCache: true})
		res := p.Sweep(g, sweepPoints, SweepOptions{Iterations: 100, Workers: runtime.GOMAXPROCS(0)})
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// The tune-latency guard pair: static tuning reads plan summaries only,
// measured tuning additionally runs trials on the simulated machine, so
// the measured/static gap is the price of measurement per tune. Run with
// -benchtime=1x in CI so regressions in either path fail loudly; compare
// the two to size eval caps (the serving trial budget assumes a measured
// point costs a small multiple of a static one).
var tuneGrid = TuneOptions{Processors: []int{1, 2, 3, 4}, CommCosts: []int{1, 2, 3}}

// BenchmarkAutoTuneStatic is the PR 2 tuning path: grid scheduling plus
// scheduled-rate ranking, warm cache after the first iteration.
func BenchmarkAutoTuneStatic(b *testing.B) {
	g := workload.Figure7().Graph
	p := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.AutoTune(g, 100, tuneGrid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoTuneMeasured is the same grid ranked by measured Sp over
// 5 seeded trials per point.
func BenchmarkAutoTuneMeasured(b *testing.B) {
	g := workload.Figure7().Graph
	p := New(Config{})
	opt := tuneGrid
	opt.Evaluator = &MeasuredEvaluator{Trials: 5, Fluct: 3, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.AutoTune(g, 100, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoTuneGort is the same grid ranked on the real goroutine
// runtime (3 wall-clock trials per point). Compare against
// BenchmarkAutoTuneMeasured: the gap is the price of real execution per
// tune, which is what the gort serving caps (trials ≤ 8, points ×
// trials ≤ 64) are sized around — a cost regression here means those
// caps no longer bound what they claim to.
func BenchmarkAutoTuneGort(b *testing.B) {
	g := workload.Figure7().Graph
	p := New(Config{})
	opt := tuneGrid
	opt.Evaluator = &MeasuredEvaluator{Trials: 3, Backend: exec.Goroutine{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.AutoTune(g, 100, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoTuneGrain is the adaptive-granularity tune: a
// chunk-friendly stream chain ranked on the goroutine runtime over a
// grain axis, the request shape `/v1/tune` with `grains` produces.
// Compare against BenchmarkAutoTuneGort: the extra cost per grain value
// is one more grid column, and a regression here means the grain cells
// (chunk-graph fold + chunked lowering + chunked execution) got more
// expensive than ordinary cells.
func BenchmarkAutoTuneGrain(b *testing.B) {
	g, err := workload.Streams(1, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := New(Config{})
	opt := TuneOptions{
		Processors: []int{2},
		CommCosts:  []int{2},
		Grains:     []int{1, 4, 8},
		Evaluator:  &MeasuredEvaluator{Trials: 3, Backend: exec.Goroutine{}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.AutoTune(g, 64, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCacheHit drives the full HTTP serving path —
// request parse, cache lookup, pre-rendered body write — for a
// cache-hit /v1/schedule request. Run with -benchmem: together with
// TestScheduleCacheHitAllocs this pins the fast lane (pre-PR 6 the same
// path re-marshaled the response at ~127 µs and 22 allocs per request).
func BenchmarkServeCacheHit(b *testing.B) {
	srv := NewServer(New(Config{}))
	body, rd, req := hitRequest(b, srv)
	w := &discardResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		srv.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// BenchmarkServeNearCapStream drives the streaming lane: a warm
// near-cap /v1/schedule request (Figure 7 at the iteration cap, ~2.3 MB
// of schedule JSON) served end to end through Server.ServeHTTP. With
// -benchmem the bytes/op column is the lane's whole point: the reply
// goes out as envelope prefix + memoized schedule bytes + suffix, so
// per-request allocation stays in kilobytes while the body is megabytes
// (TestStreamedReplyAllocBytes pins the ratio against buffering).
func BenchmarkServeNearCapStream(b *testing.B) {
	srv := NewServer(New(Config{}))
	body, rd, req := nearCapRequest(b, srv)
	w := &discardResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		srv.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// codecBenchPlan builds the plan the codec benchmarks and allocation
// budgets run on: Table 1's first loop (12 nodes) at 250 iterations,
// 3,000 placements, with its schedule bytes already memoized as they
// are by the time the serving path encodes a plan.
func codecBenchPlan(tb testing.TB) *Plan {
	tb.Helper()
	suite, err := workload.Suite()
	if err != nil {
		tb.Fatal(err)
	}
	p, _, err := New(Config{DisableCache: true}).Schedule(suite[0], core.Options{CommCost: 2}, 250)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.ScheduleJSON(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkEncodePlan measures EncodePlan on a 3,000-placement plan:
// the header through encoding/json, the memoized schedule bytes copied,
// the programs appended.
func BenchmarkEncodePlan(b *testing.B) {
	p := codecBenchPlan(b)
	rec, err := EncodePlan(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodePlan(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePlan measures DecodePlan on the same plan's record:
// one strict pass over the bytes, with every check a disk read, record
// fill or peer fill makes.
func BenchmarkDecodePlan(b *testing.B) {
	rec, err := EncodePlan(codecBenchPlan(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodePlan(rec); err != nil {
			b.Fatal(err)
		}
	}
}
