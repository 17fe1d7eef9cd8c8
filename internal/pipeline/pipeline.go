// Package pipeline unifies the compile → classify → schedule → lower flow
// behind one reusable Pipeline value with a content-addressed plan store.
//
// Every entry point of the library ultimately runs the same stages: parse
// loop source (optional), classify the dependence graph, run Cyclic-sched
// until a steady-state pattern is verified, compose the Flow-in/Flow-out
// fringes, and lower the composed schedule to per-processor programs. The
// stages are deterministic pure functions of (graph content, Options,
// iteration count), so their results are cacheable: a Pipeline hashes the
// graph (graph.Fingerprint) together with the scheduling options and
// iteration count, and serves repeat requests from a PlanStore — by
// default an in-process sharded LRU (MemStore), optionally backed by a
// durable disk tier (internal/store) so plans survive process restarts.
// Misses for the same key are collapsed into a single computation
// (singleflight), so a burst of identical requests costs one schedule.
//
// On top of plan reuse the package provides Sweep, a worker-pool
// evaluation of processor-count × communication-cost grids (replacing the
// serial parameter loops in internal/experiments and cmd/paperbench), and
// Server, an HTTP front end that schedules POSTed loop source and reports
// store statistics (see server.go).
package pipeline

import (
	"container/list"
	"crypto/sha256"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/loopir"
	"mimdloop/internal/program"
)

// Config tunes a Pipeline.
type Config struct {
	// MaxEntries bounds the number of stored plans in the default memory
	// store, and doubles as the entry bound of the parsed-source compile
	// cache. Values <= 0 mean 1024. Eviction is least-recently-used per
	// shard. Ignored (except for the compile cache) when Store is set.
	MaxEntries int
	// MaxBytes bounds the approximate resident plan bytes of the default
	// memory store. Values <= 0 mean 256 MiB. Ignored when Store is set.
	MaxBytes int64
	// DisableCache turns the pipeline into a pass-through that schedules
	// every request from scratch (useful for measurement baselines).
	DisableCache bool
	// Store, when non-nil, replaces the default MemStore as the plan
	// storage layer — e.g. a store.TieredStore for restart-durable
	// serving. The pipeline takes ownership: Pipeline.Close closes it.
	Store PlanStore
}

// Plan is one fully-constructed scheduling artifact: the composed loop
// schedule together with its lowered per-processor programs. Plans are
// shared between store readers and must be treated as immutable.
//
// A Plan may have been built by this process or decoded from a durable
// store (see DecodePlan). Both serve identically through the accessors
// below; only a freshly-built plan additionally carries the scheduler's
// intermediate state (Schedule.Multi, Schedule.Class).
type Plan struct {
	// GraphHash is the content fingerprint of the scheduled graph.
	GraphHash string
	// Opts and Iterations complete the cache key.
	Opts       core.Options
	Iterations int

	// Schedule is the composed result of core.ScheduleLoop.
	Schedule *core.LoopSchedule
	// Programs are the lowered COMPUTE/SEND/RECV streams, one per
	// processor of Schedule.Full: always program.Build(Schedule.Full);
	// never stored. Both build and DecodePlan fill it eagerly.
	Programs []program.Program

	// makespan, procs and rate are computed once, when the plan is built
	// or decoded: all can cost O(placements) scans that must not run per
	// request on the hit path. makespan and procs are read off
	// Schedule.Full; rate needs the scheduler's pattern (it falls back to
	// makespan/iterations for pattern-less plans), so records store it.
	makespan int
	procs    int
	rate     float64

	// pattern summarizes the verified steady state (nil when none); kept
	// denormalized on the plan so disk-loaded plans — which do not carry
	// Schedule.Multi — serve the same pattern block as built ones.
	pattern *PatternInfo

	// schedJSON memoizes the wire encoding of Schedule.Full so serving a
	// cached plan does not re-marshal the full placement list.
	schedJSONOnce sync.Once
	schedJSON     []byte
	schedJSONErr  error

	// measured holds the most recent measured evaluation per execution
	// backend (empty until a MeasuredEvaluator runs the plan). It is an
	// annotation, not part of the plan's identity: the cache key ignores
	// it, and version-3 plan records persist it so a reloaded plan
	// remembers its last measurement on each backend. Keyed by backend
	// name so a gort measurement never overwrites a sim one; guarded by
	// a mutex because plans are shared between concurrent evaluations.
	// measuredGen counts annotation writes so consumers that render the
	// annotations into derived artifacts (the server's pre-rendered
	// cache-hit body) can detect staleness without comparing contents.
	measuredMu  sync.RWMutex
	measured    map[string]*MeasuredStats
	measuredGen uint64

	// hitBody memoizes the serving layer's pre-rendered cache-hit
	// response body (see Server.scheduleResponse): the full /v1/schedule
	// wire reply for the no-simulate case, rendered once per (plan, loop
	// name, annotation generation) instead of re-marshaled per request.
	// hitLoop records the loop name the body was rendered for — distinct
	// sources can compile to the same graph under different names — and
	// hitGen the measured-annotation generation, so a tune landing a new
	// measurement invalidates the memo instead of serving a stale
	// measured_by block.
	hitMu   sync.Mutex
	hitBody []byte
	hitLoop string
	hitGen  uint64

	// memo keeps the plan's deterministic measured evaluations (see
	// MeasuredEvaluator.Evaluate). It is allocated on the plan's first
	// such evaluation, so a plan that is never measured carries only the
	// pointer; planBytes counts its fixed size either way.
	memo atomic.Pointer[evalMemo]
}

// evals returns the plan's evaluation memo, allocating it on first
// use.
func (p *Plan) evals() *evalMemo {
	if m := p.memo.Load(); m != nil {
		return m
	}
	p.memo.CompareAndSwap(nil, new(evalMemo))
	return p.memo.Load()
}

// Measured returns the plan's most recent simulated-machine (sim
// backend) evaluation, or nil if none ran. For other backends use
// MeasuredBy; for every annotation use MeasuredAll.
func (p *Plan) Measured() *MeasuredStats { return p.MeasuredBy("sim") }

// MeasuredBy returns the plan's most recent measured evaluation on the
// named backend, or nil.
func (p *Plan) MeasuredBy(backend string) *MeasuredStats {
	p.measuredMu.RLock()
	defer p.measuredMu.RUnlock()
	return p.measured[backend]
}

// MeasuredAll returns every backend's annotation, sorted by backend name
// so consumers (the plan codec above all) see a deterministic order.
func (p *Plan) MeasuredAll() []*MeasuredStats {
	p.measuredMu.RLock()
	out := make([]*MeasuredStats, 0, len(p.measured))
	for _, ms := range p.measured {
		out = append(out, ms)
	}
	p.measuredMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}

// SetMeasured attaches a measured evaluation to the plan under its
// backend's name (an empty Backend means "sim": records from before the
// backend layer could only have come from the simulator). The stats must
// not be mutated afterwards (they are shared with concurrent readers).
// Stats equal to the current annotation leave the plan alone: the old
// pointer and the annotation generation stay, so a repeated
// deterministic evaluation does not invalidate the pre-rendered
// cache-hit body.
func (p *Plan) SetMeasured(ms *MeasuredStats) {
	if ms.Backend == "" {
		ms.Backend = "sim"
	}
	p.measuredMu.Lock()
	defer p.measuredMu.Unlock()
	if old := p.measured[ms.Backend]; old != nil && *old == *ms {
		return
	}
	if p.measured == nil {
		p.measured = make(map[string]*MeasuredStats, 1)
	}
	p.measured[ms.Backend] = ms
	p.measuredGen++
}

// measuredGeneration returns the annotation write counter. A derived
// artifact rendered at generation g is stale iff the current generation
// differs.
func (p *Plan) measuredGeneration() uint64 {
	p.measuredMu.RLock()
	defer p.measuredMu.RUnlock()
	return p.measuredGen
}

// HitResponseBody returns the memoized rendering of the plan under
// (loop, the current annotation generation), calling render to produce
// it on the first request — and again whenever the loop name differs or
// a measured annotation landed since. Repeated calls with the same loop
// name return the identical byte slice, which callers must treat as
// immutable; this is what makes repeated cache hits byte-identical on
// the serving fast lane.
func (p *Plan) HitResponseBody(loop string, render func() ([]byte, error)) ([]byte, error) {
	gen := p.measuredGeneration()
	p.hitMu.Lock()
	if p.hitBody != nil && p.hitLoop == loop && p.hitGen == gen {
		body := p.hitBody
		p.hitMu.Unlock()
		return body, nil
	}
	p.hitMu.Unlock()
	// Render outside the lock: marshaling a near-cap schedule reply is
	// exactly the work the memo exists to avoid serializing requests on.
	// Concurrent first hits may render twice; the bytes are identical
	// (render is a pure function of the plan at one generation), so
	// last-writer-wins is safe.
	body, err := render()
	if err != nil {
		return nil, err
	}
	p.hitMu.Lock()
	p.hitBody, p.hitLoop, p.hitGen = body, loop, gen
	p.hitMu.Unlock()
	return body, nil
}

// ScheduleJSON returns the plan's composed schedule in the internal/plan
// wire format, marshaled once per Plan.
func (p *Plan) ScheduleJSON() ([]byte, error) {
	p.schedJSONOnce.Do(func() {
		p.schedJSON, p.schedJSONErr = p.Schedule.Full.MarshalJSON()
	})
	return p.schedJSON, p.schedJSONErr
}

// Rate returns the plan's steady-state cycles per iteration.
func (p *Plan) Rate() float64 { return p.rate }

// Procs returns the number of processors the plan occupies.
func (p *Plan) Procs() int { return p.procs }

// Makespan returns the composed schedule's finishing cycle.
func (p *Plan) Makespan() int { return p.makespan }

// Pattern returns the plan's steady-state summary, or nil when no
// pattern was verified (Schedule.GreedyFallback is then true, or the
// Cyclic subset spans several components).
func (p *Plan) Pattern() *PatternInfo { return p.pattern }

// Stats is a point-in-time snapshot of pipeline behaviour. The
// request-level counters (hits, misses, computes) are the pipeline's
// own; Store nests the storage layer's per-tier counters.
type Stats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Computes uint64 `json:"computes"` // misses that actually scheduled (rest piggybacked on an in-flight computation)
	// Evictions aggregates plans dropped under size pressure across
	// every store tier.
	Evictions uint64 `json:"evictions"`
	// Entries mirrors the store's Len.
	Entries int `json:"entries"`
	// Store is the storage layer's own snapshot (nested per-tier for a
	// TieredStore).
	Store StoreStats `json:"store"`
	// Evals counts plan evaluations by evaluator kind.
	Evals EvalStats `json:"evals"`
}

// EvalStats counts how plans were scored: Static and Measured are
// evaluator invocations (every Sweep/AutoTune grid point, batch summary
// and simulate request is one), Replayed the measured ones a
// deterministic backend served from the plan's memo instead of running,
// and Trials the backend runs the other measured evaluations cost.
type EvalStats struct {
	Static   uint64 `json:"static"`
	Measured uint64 `json:"measured"`
	Replayed uint64 `json:"replayed"`
	Trials   uint64 `json:"trials"`
}

// HitRate returns hits / (hits + misses), or 0 before any traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Pipeline is a concurrency-safe scheduling front end over a PlanStore.
// The zero value is not usable; construct with New.
type Pipeline struct {
	cfg   Config
	store PlanStore

	hits     atomic.Uint64
	misses   atomic.Uint64
	computes atomic.Uint64

	staticEvals   atomic.Uint64
	measuredEvals atomic.Uint64
	replayedEvals atomic.Uint64
	evalTrials    atomic.Uint64

	// flight collapses concurrent misses for one key into a single
	// computation. It wraps the store: the winning goroutine builds the
	// plan, Puts it, and every piggybacked request shares the outcome.
	flight flightGroup

	// compileMu guards the compile cache: an LRU of parsed loop sources
	// keyed by source hash (so arbitrarily large request bodies are never
	// retained as map keys — and the raw digest array, not its hex
	// rendering, so the serving hot path never formats a key string),
	// used by CompileAndSchedule and the server.
	compileMu sync.Mutex
	compiled  map[[sha256.Size]byte]*list.Element // sha256(source) -> element of compOrder
	compOrder *list.List                          // front = most recently used; Value is *compiledEntry
}

// compiledEntry is one compile-cache slot.
type compiledEntry struct {
	key [sha256.Size]byte
	c   *loopir.Compiled
}

// flightGroup is a minimal singleflight: one in-flight computation per
// key, removed as soon as it completes (the completed plan then lives in
// the store, not here — so failures are naturally never cached).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
	// landed counts completed flights, bumped under mu as each call is
	// removed. A caller reads it before probing the store; if it moved
	// by the time the caller starts a flight, a flight that finished in
	// between may have stored the key after the probe missed.
	landed atomic.Uint64
}

type flightCall struct {
	done chan struct{}
	plan *Plan
	err  error
}

// do runs fn once per key among concurrent callers; late arrivals block
// until the in-flight computation completes and share its outcome.
// landed is the completion count the caller read before its store probe:
// fn's argument reports that a flight has completed since, so the store
// should be probed again before computing.
func (g *flightGroup) do(key string, landed uint64, fn func(recheck bool) (*Plan, error)) (*Plan, error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.plan, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	recheck := g.landed.Load() != landed
	g.mu.Unlock()

	c.plan, c.err = fn(recheck)
	close(c.done)

	g.mu.Lock()
	delete(g.calls, key)
	g.landed.Add(1)
	g.mu.Unlock()
	return c.plan, c.err
}

// New returns an empty Pipeline over cfg.Store (or a fresh MemStore).
func New(cfg Config) *Pipeline {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1024
	}
	st := cfg.Store
	if st == nil {
		st = NewMemStore(MemConfig{MaxEntries: cfg.MaxEntries, MaxBytes: cfg.MaxBytes})
	}
	return &Pipeline{
		cfg:       cfg,
		store:     st,
		compiled:  make(map[[sha256.Size]byte]*list.Element),
		compOrder: list.New(),
	}
}

// Store returns the pipeline's storage layer.
func (p *Pipeline) Store() PlanStore { return p.store }

// PlanKey derives the canonical store key of a plan from its three
// ingredients: graph fingerprint, scheduling options, iteration count.
// Every producer — Schedule, Batch, Sweep, AutoTune, Warmup — and every
// PlanStore uses exactly this derivation; EncodePlan embeds it in
// durable records and DecodePlan re-derives it to detect tampered or
// aliased records.
//
// The options render field by field, byte-identical to fmt's %+v of
// core.Options as it was before the Grain field, so every plan record
// persisted before the grain axis keeps its key. Grain joins the key as
// an explicit "|grainG" token only when set (> 1). Every exported field
// of core.Options must appear here, so that no two option sets alias
// one plan; TestLegacyKeyOptionsMirror sets each field in turn.
func PlanKey(hash string, o core.Options, n int) string {
	var buf [256]byte
	b := append(buf[:0], hash...)
	b = strconv.AppendInt(append(b, "|{Processors:"...), int64(o.Processors), 10)
	b = strconv.AppendInt(append(b, " CommCost:"...), int64(o.CommCost), 10)
	b = strconv.AppendBool(append(b, " CommFromStart:"...), o.CommFromStart)
	b = strconv.AppendInt(append(b, " WindowHeight:"...), int64(o.WindowHeight), 10)
	b = strconv.AppendInt(append(b, " MaxIterations:"...), int64(o.MaxIterations), 10)
	b = strconv.AppendBool(append(b, " AppendOnly:"...), o.AppendOnly)
	b = strconv.AppendBool(append(b, " FIFOOrder:"...), o.FIFOOrder)
	b = strconv.AppendBool(append(b, " FoldNonCyclic:"...), o.FoldNonCyclic)
	b = strconv.AppendInt(append(b, " DriftBound:"...), int64(o.DriftBound), 10)
	b = append(b, '}')
	if o.Grain > 1 {
		b = strconv.AppendInt(append(b, "|grain"...), int64(o.Grain), 10)
	}
	b = strconv.AppendInt(append(b, "|n"...), int64(n), 10)
	return string(b)
}

// Schedule runs the full pipeline on g for n iterations, serving from the
// plan store when an identical request (same graph content, options and
// iteration count) was seen before — by this process, or, with a durable
// store, by an earlier one. The boolean reports whether the plan came
// from the store.
func (p *Pipeline) Schedule(g *graph.Graph, opts core.Options, n int) (*Plan, bool, error) {
	// Grain 1 and grain 0 schedule identically (no chunking); normalize
	// so they share one cache key — and so the grain-0 key stays
	// byte-identical to pre-grain records.
	if opts.Grain <= 1 {
		opts.Grain = 0
	}
	hash := g.Fingerprint()
	if p.cfg.DisableCache {
		plan, err := build(g, hash, opts, n)
		p.misses.Add(1)
		p.computes.Add(1)
		return plan, false, err
	}
	key := PlanKey(hash, opts, n)
	landed := p.flight.landed.Load()
	if plan, ok := p.store.Get(key); ok {
		p.hits.Add(1)
		return plan, true, nil
	}
	// Miss: compute (or piggyback on an identical in-flight computation)
	// and write the result through the store. Either way the request
	// waited the full scheduling latency, so both count as misses —
	// reporting piggybacks as hits would flatter the counters. A flight
	// that landed after the probe above may have stored the key, so the
	// store is probed again then; that late piggyback is a miss too.
	plan, err := p.flight.do(key, landed, func(recheck bool) (*Plan, error) {
		if recheck {
			if plan, ok := p.store.Get(key); ok {
				return plan, nil
			}
		}
		p.computes.Add(1)
		plan, err := build(g, hash, opts, n)
		if err != nil {
			return nil, err
		}
		p.store.Put(key, plan)
		return plan, nil
	})
	p.misses.Add(1)
	if err != nil {
		return nil, false, err
	}
	return plan, false, nil
}

// build runs the uncached pipeline stages: schedule, then lower.
func build(g *graph.Graph, hash string, opts core.Options, n int) (*Plan, error) {
	ls, err := core.ScheduleLoop(g, opts, n)
	if err != nil {
		return nil, err
	}
	progs, err := program.Build(ls.Full)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		GraphHash:  hash,
		Opts:       opts,
		Iterations: n,
		Schedule:   ls,
		Programs:   progs,
		makespan:   ls.Full.Makespan(),
		procs:      ls.Full.ProcsUsed(),
		rate:       ls.RatePerIteration(),
	}
	if pat := ls.Pattern(); pat != nil {
		p.pattern = &PatternInfo{
			Cycles:    pat.Cycles(),
			IterShift: pat.IterShift,
			Rate:      pat.RatePerIteration(),
			Forced:    pat.Forced,
		}
	}
	return p, nil
}

// Lookup probes the plan store for key without scheduling on a miss.
// A found plan counts as a pipeline hit; a miss counts nothing — the
// caller decides what happens next (the cluster serving path forwards
// the request to the key's owner, and only a failed forward falls back
// into Schedule, which then does its own miss accounting).
func (p *Pipeline) Lookup(key string) (*Plan, bool) {
	if p.cfg.DisableCache {
		return nil, false
	}
	plan, ok := p.store.Get(key)
	if ok {
		p.hits.Add(1)
	}
	return plan, ok
}

// CompileAndSchedule parses loop-language source (memoizing compilation by
// source content), then schedules the compiled graph through the plan
// store.
func (p *Pipeline) CompileAndSchedule(src string, opts core.Options, n int) (*loopir.Compiled, *Plan, bool, error) {
	c, err := p.Compile(src)
	if err != nil {
		return nil, nil, false, err
	}
	plan, hit, err := p.Schedule(c.Graph, opts, n)
	return c, plan, hit, err
}

// Compile parses and analyzes loop-language source through the compile
// cache: repeat sources return the same *Compiled without re-parsing.
func (p *Pipeline) Compile(src string) (*loopir.Compiled, error) {
	key := sha256.Sum256([]byte(src))
	p.compileMu.Lock()
	if el, ok := p.compiled[key]; ok {
		p.compOrder.MoveToFront(el)
		c := el.Value.(*compiledEntry).c
		p.compileMu.Unlock()
		return c, nil
	}
	p.compileMu.Unlock()

	l, err := loopir.Parse(src)
	if err != nil {
		return nil, err
	}
	c, err := loopir.Compile(l)
	if err != nil {
		return nil, err
	}

	p.compileMu.Lock()
	if el, ok := p.compiled[key]; ok {
		// A concurrent request compiled the same source first; keep that
		// result so repeat callers keep seeing one pointer.
		p.compOrder.MoveToFront(el)
		c = el.Value.(*compiledEntry).c
	} else {
		p.compiled[key] = p.compOrder.PushFront(&compiledEntry{key: key, c: c})
		for p.compOrder.Len() > p.cfg.MaxEntries {
			back := p.compOrder.Back()
			p.compOrder.Remove(back)
			delete(p.compiled, back.Value.(*compiledEntry).key)
		}
	}
	p.compileMu.Unlock()
	return c, nil
}

// Stats snapshots the pipeline counters and the store's own snapshot.
func (p *Pipeline) Stats() Stats {
	st := p.store.Stats()
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Computes:  p.computes.Load(),
		Evictions: st.TotalEvictions(),
		Entries:   st.Entries,
		Store:     st,
		Evals: EvalStats{
			Static:   p.staticEvals.Load(),
			Measured: p.measuredEvals.Load(),
			Replayed: p.replayedEvals.Load(),
			Trials:   p.evalTrials.Load(),
		},
	}
}

// Flush empties the plan store and the compile cache. With a durable
// store this removes the persisted plans too — it is the programmatic
// form of `loopsched store flush`, not a cache drop.
func (p *Pipeline) Flush() error {
	err := p.store.Flush()
	p.compileMu.Lock()
	p.compiled = make(map[[sha256.Size]byte]*list.Element)
	p.compOrder.Init()
	p.compileMu.Unlock()
	return err
}

// Close releases the plan store (closing durable tiers). The pipeline
// must not be used afterwards.
func (p *Pipeline) Close() error { return p.store.Close() }
