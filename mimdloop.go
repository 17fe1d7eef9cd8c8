// Package mimdloop parallelizes non-vectorizable loops for asynchronous
// MIMD machines, reproducing Kim & Nicolau, "Parallelizing Non-Vectorizable
// Loops for MIMD Machines" (ICPP 1990 / UC Irvine TR 90-01).
//
// A loop is modeled as a data dependence graph whose edges carry iteration
// distances. The library:
//
//   - classifies nodes into Flow-in / Cyclic / Flow-out subsets (the Cyclic
//     subset alone determines the achievable steady-state rate);
//   - greedily schedules the conceptually infinite unwinding of the Cyclic
//     subset onto processors under an explicit communication-cost model,
//     detecting the repeating pattern the paper's Theorem 1 guarantees (with
//     a modulo-scheduling fallback when the transient is chaotic);
//   - schedules the Flow-in and Flow-out fringes on extra processors so they
//     never delay the cyclic core;
//   - lowers schedules to per-processor COMPUTE/SEND/RECV programs and
//     runs them behind a pluggable execution Backend: a deterministic
//     simulated multiprocessor with communication fluctuation (the
//     paper's Table 1 experiment) and real goroutine-per-processor
//     hardware with channel messaging, both driving the same repeated-
//     trial harness (SimBackend, GoroutineBackend);
//   - provides the DOACROSS iteration-pipelining baseline [Cytron86], a
//     miniature loop-language front end with dependence analysis and
//     if-conversion [AlKe83], and the paper's example workloads;
//   - wraps the whole flow in a Pipeline whose content-addressed plan store
//     makes repeat scheduling a map lookup, with concurrent
//     machine-parameter sweeps (Pipeline.Sweep), sweep-driven (p, k)
//     auto-tuning under pluggable objectives (AutoTune) and pluggable plan
//     scoring (Evaluator: the static scheduled rate, or measured Sp over
//     repeated trials on an execution backend — simulated or real — with
//     spread-aware mean/worst/p95 ranking; NewMeasuredEvaluator), batch
//     scheduling
//     with per-item error isolation (Pipeline.Batch), cache warm-up from a
//     schedule corpus (Pipeline.Warmup), and an HTTP serving mode
//     (`loopsched serve`, NewPipelineServer: schedule, batch, tune, stored
//     plans);
//   - persists plans behind a pluggable PlanStore: the default in-memory
//     sharded LRU (NewMemStore), a durable content-addressed DiskStore
//     (NewDiskStore), and a write-through TieredStore (NewTieredStore)
//     that lets a restarted process serve its predecessor's plans — and
//     AutoTune winners — without rescheduling (`loopsched serve -store`).
//
// Quick start:
//
//	c := mimdloop.MustCompileLoop(`
//	    loop f(N = 100) {
//	        A[i] = A[i-1] + E[i-1]
//	        B[i] = A[i]
//	        C[i] = B[i]
//	        D[i] = D[i-1] + C[i-1]
//	        E[i] = D[i]
//	    }`)
//	ls, _ := mimdloop.ScheduleLoop(c.Graph, mimdloop.Options{Processors: 2, CommCost: 2}, 100)
//	fmt.Printf("steady state: %.1f cycles/iteration\n", ls.RatePerIteration())
package mimdloop

import (
	"mimdloop/internal/calib"
	"mimdloop/internal/classify"
	"mimdloop/internal/core"
	"mimdloop/internal/doacross"
	"mimdloop/internal/exec"
	"mimdloop/internal/graph"
	"mimdloop/internal/loopir"
	"mimdloop/internal/machine"
	"mimdloop/internal/mimdrt"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
	"mimdloop/internal/store"
	"mimdloop/internal/textfmt"
	"mimdloop/internal/workload"
)

// Graph construction and analysis.
type (
	// Graph is a loop's data dependence graph.
	Graph = graph.Graph
	// GraphBuilder assembles a Graph node by node.
	GraphBuilder = graph.Builder
	// Node is one unit of computation with an integer latency.
	Node = graph.Node
	// Edge is a dependence link with an iteration distance.
	Edge = graph.Edge
	// InstanceID names one dynamic execution of a node.
	InstanceID = graph.InstanceID
	// Classification partitions nodes into Flow-in / Cyclic / Flow-out.
	Classification = classify.Result
	// NodeClass is one of FlowIn, Cyclic, FlowOut.
	NodeClass = classify.Class
)

// Classification labels.
const (
	FlowIn  = classify.FlowIn
	Cyclic  = classify.Cyclic
	FlowOut = classify.FlowOut
)

// Scheduling.
type (
	// Options configures the pattern scheduler.
	Options = core.Options
	// LoopSchedule is the composed result of the full pipeline.
	LoopSchedule = core.LoopSchedule
	// Pattern is a verified steady-state period.
	Pattern = core.Pattern
	// CyclicResult is the Cyclic-sched outcome on one connected graph.
	CyclicResult = core.CyclicResult
	// MultiResult holds per-component Cyclic-sched outcomes.
	MultiResult = core.MultiResult
	// Schedule is a set of timed placements on processors.
	Schedule = plan.Schedule
	// Placement assigns one node instance to a processor and start cycle.
	Placement = plan.Placement
	// Timing is the communication-cost model.
	Timing = plan.Timing
)

// Pipeline: cached scheduling, concurrent parameter sweeps, serving.
type (
	// Pipeline is a concurrency-safe scheduling front end whose
	// content-addressed plan store makes repeat scheduling a lookup.
	Pipeline = pipeline.Pipeline
	// PipelineConfig tunes store capacity (and, via Store, plugs in a
	// custom storage layer such as a TieredStore).
	PipelineConfig = pipeline.Config
	// PipelineStats snapshots request counters plus the storage layer's
	// nested per-tier snapshot.
	PipelineStats = pipeline.Stats
	// Plan is one stored artifact: a LoopSchedule plus its lowered
	// per-processor programs. Plans are shared and must not be mutated.
	Plan = pipeline.Plan
	// SweepPoint is one (processors, comm cost) grid cell.
	SweepPoint = pipeline.Point
	// SweepOptions configures a concurrent parameter sweep.
	SweepOptions = pipeline.SweepOptions
	// SweepResult is the outcome at one grid point.
	SweepResult = pipeline.Result
	// PipelineServer serves schedules over HTTP (see NewPipelineServer).
	PipelineServer = pipeline.Server
	// PipelineServerConfig tunes the serving layer (compute-slot bound);
	// the zero value is the GOMAXPROCS-derived default.
	PipelineServerConfig = pipeline.ServerConfig
)

// Plan storage: the pluggable persistence layer behind a Pipeline.
type (
	// PlanStore is the storage interface: Get/Put/Delete keyed plans,
	// size accounting, Flush, Close, Stats.
	PlanStore = pipeline.PlanStore
	// PlanLister is the optional enumeration interface behind
	// GET /v1/plans and `loopsched store ls`; all built-in stores
	// implement it.
	PlanLister = pipeline.PlanLister
	// RecordOpener is the optional raw-record read interface behind the
	// streamed GET /v1/plans/{fp}?key= path; DiskStore and TieredStore
	// implement it.
	RecordOpener = pipeline.RecordOpener
	// RecordSink is the streamed-validation write interface peer fills
	// use (PeerStoreConfig.RecordSink); DiskStore implements it.
	RecordSink = store.RecordSink
	// PlanInfo is one stored plan's summary row.
	PlanInfo = pipeline.PlanInfo
	// PlanStoreStats is one store's counter snapshot (nested per tier
	// for a TieredStore).
	PlanStoreStats = pipeline.StoreStats
	// MemStore is the in-memory sharded LRU store (the default).
	MemStore = pipeline.MemStore
	// MemStoreConfig bounds a MemStore by entries and bytes.
	MemStoreConfig = pipeline.MemConfig
	// DiskStore persists plans as content-addressed JSON records under a
	// directory: atomic writes, corrupt-record quarantine, size-bounded
	// GC.
	DiskStore = store.DiskStore
	// DiskStoreConfig locates and bounds a DiskStore.
	DiskStoreConfig = store.DiskConfig
	// TieredStore write-throughs a fast upper tier over a durable lower
	// tier, promoting on lower-tier hits.
	TieredStore = store.TieredStore
	// PeerStore is the cluster tier: a consistent-hash ring over the
	// configured peers, filling local misses from the owning peer's
	// durable records and forwarding cold schedule requests to the
	// owner (cluster-wide singleflight). Slot it between the memory and
	// disk tiers and pass it as PipelineServerConfig.Cluster.
	PeerStore = store.PeerStore
	// PeerStoreConfig names this node, the full peer membership, and
	// the ring/transport/fault-handling knobs.
	PeerStoreConfig = store.PeerConfig
	// ClusterStats is the "cluster" block of GET /v1/stats.
	ClusterStats = pipeline.ClusterStats
	// ScheduleForwarder is the cluster hook a PipelineServer consults on
	// every schedule request; PeerStore is the built-in implementation.
	ScheduleForwarder = pipeline.ScheduleForwarder
)

// NewPeerStore builds the cluster tier for one node of a loopsched
// cluster:
//
//	peer, _ := mimdloop.NewPeerStore(mimdloop.PeerStoreConfig{
//	    Self:  "10.0.0.1:8080",
//	    Peers: []string{"10.0.0.1:8080", "10.0.0.2:8080"},
//	})
//	p := mimdloop.NewPipeline(mimdloop.PipelineConfig{
//	    Store: mimdloop.NewTieredStore(mimdloop.NewMemStore(mimdloop.MemStoreConfig{}), peer),
//	})
//	h := mimdloop.NewPipelineServerWith(p, mimdloop.PipelineServerConfig{Cluster: peer})
func NewPeerStore(cfg PeerStoreConfig) (*PeerStore, error) { return store.NewPeer(cfg) }

// NewMemStore returns an empty in-memory plan store.
func NewMemStore(cfg MemStoreConfig) *MemStore { return pipeline.NewMemStore(cfg) }

// NewDiskStore opens (creating if needed) a durable plan store over
// cfg.Dir, indexing any plan records already present so a new process
// serves its predecessor's plans.
func NewDiskStore(cfg DiskStoreConfig) (*DiskStore, error) { return store.Open(cfg) }

// NewTieredStore composes upper (fast, typically a MemStore) over lower
// (durable, typically a DiskStore). Use it as PipelineConfig.Store for
// restart-durable serving:
//
//	disk, _ := mimdloop.NewDiskStore(mimdloop.DiskStoreConfig{Dir: "plans"})
//	p := mimdloop.NewPipeline(mimdloop.PipelineConfig{
//	    Store: mimdloop.NewTieredStore(mimdloop.NewMemStore(mimdloop.MemStoreConfig{}), disk),
//	})
//	defer p.Close()
func NewTieredStore(upper, lower PlanStore) *TieredStore { return store.NewTiered(upper, lower) }

// PlanKey derives the canonical store key of a plan from its
// ingredients: graph fingerprint, scheduling options, iteration count.
func PlanKey(fingerprint string, opts Options, iterations int) string {
	return pipeline.PlanKey(fingerprint, opts, iterations)
}

// Plan evaluation: the pluggable scoring layer behind Sweep and AutoTune.
type (
	// Evaluator scores a plan's goodness; Sweep, AutoTune and the tune
	// endpoint rank grid points through it.
	Evaluator = pipeline.Evaluator
	// EvalScore is one evaluator's verdict (rate, processors, optional
	// measured trial spread).
	EvalScore = pipeline.Score
	// MeasuredStats is the Sp/makespan spread of a measured evaluation —
	// tagged with the backend that produced it — as persisted in
	// version-3 plan records and tune replies.
	MeasuredStats = pipeline.MeasuredStats
	// StaticEvaluator scores by the compile-time scheduled rate (the
	// default everywhere).
	StaticEvaluator = pipeline.StaticEvaluator
	// MeasuredEvaluator scores by executing plans on an ExecBackend for
	// repeated trials: the simulated MIMD machine under seeded
	// communication fluctuation (default), or the real goroutine runtime
	// timed on the wall clock.
	MeasuredEvaluator = pipeline.MeasuredEvaluator
	// EvalObjective selects the distribution statistic a measured
	// evaluation ranks by: EvalMean, EvalWorst or EvalP95.
	EvalObjective = pipeline.EvalObjective
	// EvalStats counts evaluator activity in PipelineStats.
	EvalStats = pipeline.EvalStats
	// TuneRequest is the POST /v1/tune envelope; its Eval block selects
	// the evaluator.
	TuneRequest = pipeline.TuneRequest
	// EvalRequest is the eval block of a TuneRequest (mode, backend,
	// objective, trials, fluctuation).
	EvalRequest = pipeline.EvalRequest
	// FluctModel is the machine's seeded, per-message-deterministic
	// communication-fluctuation model.
	FluctModel = machine.FluctModel
	// TrialStats aggregates repeated simulated runs (see SimulateTrials).
	TrialStats = machine.TrialStats
)

// Spread-aware evaluation objectives.
const (
	// EvalMean ranks plans by their mean measured makespan (the default).
	EvalMean = pipeline.EvalMean
	// EvalWorst ranks by the worst trial.
	EvalWorst = pipeline.EvalWorst
	// EvalP95 ranks by the nearest-rank 95th-percentile trial.
	EvalP95 = pipeline.EvalP95
)

// ParseEvalObjective maps "mean", "worst" or "p95" to its EvalObjective.
func ParseEvalObjective(s string) (EvalObjective, error) { return pipeline.ParseEvalObjective(s) }

// Execution backends: the pluggable layer measured evaluation runs on.
type (
	// ExecBackend runs lowered programs repeatedly and reports the trial
	// spread; plug one into MeasuredEvaluator.Backend.
	ExecBackend = exec.Backend
	// ExecTrialConfig shapes one ExecBackend.RunTrials call.
	ExecTrialConfig = exec.TrialConfig
	// ExecTrialStats is a backend's raw trial distribution (makespans in
	// backend-native units plus a sequential baseline).
	ExecTrialStats = exec.TrialStats
)

// SimBackend returns the deterministic simulated-machine backend
// ("sim"): seeded fluctuation trials on internal/machine, cheap and
// exactly replayable. It is the default when MeasuredEvaluator.Backend
// is nil.
func SimBackend() ExecBackend { return exec.Sim{} }

// GoroutineBackend returns the real-execution backend ("gort"): each
// trial runs the programs on goroutine-per-processor hardware with
// channel messaging, timed on the wall clock and value-checked against
// the sequential interpretation. Honest but noisy, and it burns real
// CPU per trial:
//
//	res, _ := mimdloop.AutoTune(g, 100, mimdloop.TuneOptions{
//	    Evaluator: &mimdloop.MeasuredEvaluator{
//	        Trials:    3,
//	        Backend:   mimdloop.GoroutineBackend(),
//	        Objective: mimdloop.EvalWorst,
//	    },
//	})
func GoroutineBackend() ExecBackend { return exec.Goroutine{} }

// ExecBackendFor resolves a backend wire name: "" or "sim" for the
// simulated machine, "gort" for the goroutine runtime, "csim" for the
// calibrated simulator (unfitted until given a CostModel — see
// CalibratedBackend).
func ExecBackendFor(name string) (ExecBackend, error) { return exec.ForName(name) }

// Cost-model calibration: fitting the simulated machine's accounting to
// measured goroutine-runtime makespans so the "csim" backend ranks
// plans in predicted wall-clock nanoseconds at simulator cost.
type (
	// CostModel is the fitted linear map from sim accounting (cycles,
	// messages, iterations) to nanoseconds; the zero value means "no
	// profile" and leaves csim a transparent raw-sim passthrough.
	CostModel = exec.CostModel
	// CalibProfile is one fitted calibration: the model plus its fit
	// residuals and provenance, persisted as a versioned JSON record.
	CalibProfile = calib.Profile
	// CalibConfig shapes one calibration pass (probe loops, trials,
	// grid); the zero value takes defaults sized well under a second.
	CalibConfig = calib.Config
	// CalibManager holds a serving process's live profile: background
	// refresh, persistence beside the plan store, and the
	// PipelineServerConfig.Calibration seam behind `eval.backend=csim`.
	CalibManager = calib.Manager
)

// CalibratedBackend returns the calibrated-simulator backend ("csim"):
// deterministic sim trials rescaled through a fitted CostModel, so the
// ranking approximates gort's at sim cost. A zero model degrades to the
// raw sim backend byte-identically.
func CalibratedBackend(m CostModel) ExecBackend { return exec.Calibrated{Model: m} }

// Calibrate runs one calibration pass: a seeded probe suite through
// both backends, least-squares fitted. See `loopsched calibrate`.
func Calibrate(cfg CalibConfig) (*CalibProfile, error) { return calib.Calibrate(cfg) }

// QuickCalibConfig is the CI-sized calibration pass (-quick).
func QuickCalibConfig() CalibConfig { return calib.Quick() }

// NewCalibManager returns a CalibManager persisting to path ("" =
// memory only); CalibProfilePath names the canonical location inside a
// plan-store directory.
func NewCalibManager(path string) *CalibManager { return calib.NewManager(path) }

// CalibProfilePath is the canonical profile path inside a plan-store
// directory (`loopsched serve -store DIR`).
func CalibProfilePath(dir string) string { return calib.ProfilePath(dir) }

// LoadCalibProfile reads a persisted profile record; a file that fails
// to decode is quarantined beside the store's corrupt plan records.
func LoadCalibProfile(path string) (*CalibProfile, error) { return calib.LoadProfile(path) }

// SaveCalibProfile writes the versioned profile record atomically.
func SaveCalibProfile(path string, p *CalibProfile) error { return calib.SaveProfile(path, p) }

// NewMeasuredEvaluator returns an Evaluator running `trials` seeded
// simulations per plan with fluctuation mm on the sim backend, for
// TuneOptions.Evaluator or SweepOptions.Evaluator:
//
//	res, _ := mimdloop.AutoTune(g, 100, mimdloop.TuneOptions{
//	    Evaluator: mimdloop.NewMeasuredEvaluator(5, 3, 1),
//	})
func NewMeasuredEvaluator(trials, fluct int, seed int64) *MeasuredEvaluator {
	return pipeline.NewMeasuredEvaluator(trials, fluct, seed)
}

// SimulateTrials executes programs on the simulated machine `trials`
// times under deterministically derived per-trial seeds and aggregates
// the makespan/utilization spread.
func SimulateTrials(g *Graph, progs []Program, cfg MachineConfig, trials int) (*TrialStats, error) {
	return machine.RunTrials(g, progs, cfg, trials)
}

// Auto-tuning, batching and warm-up on top of the pipeline.
type (
	// TuneObjective selects what AutoTune optimizes: ObjectiveMinRate,
	// ObjectiveMinProcs or ObjectiveEfficiency.
	TuneObjective = pipeline.Objective
	// TuneOptions configures an AutoTune grid search.
	TuneOptions = pipeline.TuneOptions
	// TuneResult is the winning point plus the full evaluated grid.
	TuneResult = pipeline.TuneResult
	// BatchItem is one loop of a Pipeline.Batch call.
	BatchItem = pipeline.BatchItem
	// BatchResult is one item's isolated outcome.
	BatchResult = pipeline.BatchResult
	// BatchOptions sizes the batch worker pool.
	BatchOptions = pipeline.BatchOptions
	// ScheduleRequest is the HTTP schedule envelope, also one entry of a
	// warm-up corpus (see ParseCorpus, Pipeline.Warmup).
	ScheduleRequest = pipeline.ScheduleRequest
	// WarmupStats summarizes a cache warm-up pass.
	WarmupStats = pipeline.WarmupStats
)

// AutoTune objectives.
const (
	// ObjectiveMinRate picks the fastest steady state.
	ObjectiveMinRate = pipeline.ObjectiveMinRate
	// ObjectiveMinProcs picks the fewest processors within Epsilon of the
	// best rate.
	ObjectiveMinProcs = pipeline.ObjectiveMinProcs
	// ObjectiveEfficiency maximizes speedup per processor.
	ObjectiveEfficiency = pipeline.ObjectiveEfficiency
)

// AutoTune explores a processors × comm-cost grid on a fresh pipeline and
// returns the best (p, k) plan under the configured objective. For
// repeated tuning (or to share the plan cache with serving traffic), keep
// a Pipeline and call its AutoTune method instead.
func AutoTune(g *Graph, n int, opt TuneOptions) (*TuneResult, error) {
	return pipeline.New(pipeline.Config{}).AutoTune(g, n, opt)
}

// ParseObjective maps "min_rate", "min_procs" or "efficiency" to its
// TuneObjective.
func ParseObjective(s string) (TuneObjective, error) { return pipeline.ParseObjective(s) }

// ParseCorpus decodes a schedule corpus file: a JSON array whose elements
// are loop sources or schedule-request objects, for Pipeline.Warmup.
func ParseCorpus(data []byte) ([]ScheduleRequest, error) { return pipeline.ParseCorpus(data) }

// NewPipeline returns an empty pipeline with its own plan cache.
func NewPipeline(cfg PipelineConfig) *Pipeline { return pipeline.New(cfg) }

// NewPipelineServer wraps a pipeline in an http.Handler exposing
// POST /v1/schedule, POST /v1/batch, POST /v1/tune, GET /v1/stats and
// GET /healthz (documented in docs/API.md).
func NewPipelineServer(p *Pipeline) *PipelineServer { return pipeline.NewServer(p) }

// NewPipelineServerWith is NewPipelineServer with an explicit serving
// configuration (`loopsched serve -slots`).
func NewPipelineServerWith(p *Pipeline, cfg PipelineServerConfig) *PipelineServer {
	return pipeline.NewServerWith(p, cfg)
}

// SweepGrid returns the cross product procs x commCosts in row-major
// order, for Pipeline.Sweep.
func SweepGrid(procs, commCosts []int) []SweepPoint { return pipeline.Grid(procs, commCosts) }

// Baseline.
type (
	// DoacrossOptions configures the iteration-pipelining baseline.
	DoacrossOptions = doacross.Options
	// DoacrossResult is the baseline's schedule and chosen parameters.
	DoacrossResult = doacross.Result
)

// Execution.
type (
	// Program is one processor's COMPUTE/SEND/RECV stream.
	Program = program.Program
	// Instr is one program instruction.
	Instr = program.Instr
	// MachineConfig controls the simulated multiprocessor.
	MachineConfig = machine.Config
	// MachineStats reports a simulated run.
	MachineStats = machine.Stats
	// Semantics gives nodes meaning for real execution.
	Semantics = mimdrt.Semantics
	// MixSemantics is a synthetic, misrouting-sensitive Semantics.
	MixSemantics = mimdrt.MixSemantics
)

// Front end.
type (
	// Loop is a parsed loop-language program.
	Loop = loopir.Loop
	// CompiledLoop couples a Loop with its dependence graph and runnable
	// semantics.
	CompiledLoop = loopir.Compiled
)

// ErrNoPattern reports that no steady state was found within budget.
var ErrNoPattern = core.ErrNoPattern

// NewGraphBuilder returns an empty dependence-graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// NewGraph builds a graph from explicit node and edge lists.
func NewGraph(nodes []Node, edges []Edge) (*Graph, error) { return graph.New(nodes, edges) }

// Classify partitions a graph's nodes (paper Figure 2).
func Classify(g *Graph) *Classification { return classify.Partition(g) }

// ScheduleLoop runs the complete pipeline of paper Figure 6 for n
// iterations: classification, Cyclic-sched per connected component,
// Flow-in-sched, Flow-out-sched, composition.
func ScheduleLoop(g *Graph, opts Options, n int) (*LoopSchedule, error) {
	return core.ScheduleLoop(g, opts, n)
}

// CyclicSched schedules one connected graph's infinite unwinding until a
// pattern is verified (paper Figure 4).
func CyclicSched(g *Graph, opts Options) (*CyclicResult, error) {
	return core.CyclicSched(g, opts)
}

// CyclicSchedAll schedules each weakly-connected component independently.
func CyclicSchedAll(g *Graph, opts Options) (*MultiResult, error) {
	return core.CyclicSchedAll(g, opts)
}

// GreedySchedule schedules exactly n iterations without pattern machinery.
func GreedySchedule(g *Graph, opts Options, n int) (*Schedule, error) {
	return core.GreedyN(g, opts, n)
}

// UnwoundSchedule is the result of the normalize-then-schedule path.
type UnwoundSchedule = core.UnwoundSchedule

// ScheduleUnwound normalizes dependence distances to <= 1 by unwinding
// [MuSi87], schedules the unwound body, and maps placements back to the
// original loop's iteration space.
func ScheduleUnwound(g *Graph, opts Options, n int) (*UnwoundSchedule, error) {
	return core.ScheduleUnwound(g, opts, n)
}

// Doacross builds the best DOACROSS schedule for n iterations [Cytron86].
func Doacross(g *Graph, opts DoacrossOptions, n int) (*DoacrossResult, error) {
	return doacross.Schedule(g, opts, n)
}

// SequentialSchedule runs everything on one processor: the baseline "s" of
// the percentage-parallelism metric.
func SequentialSchedule(g *Graph, timing Timing, n int) *Schedule {
	return plan.Sequential(g, timing, n)
}

// BuildPrograms lowers a schedule to per-processor instruction streams.
func BuildPrograms(s *Schedule) ([]Program, error) { return program.Build(s) }

// Simulate executes programs on the deterministic simulated MIMD machine.
func Simulate(g *Graph, progs []Program, cfg MachineConfig) (*MachineStats, error) {
	return machine.Run(g, progs, cfg)
}

// Execute runs programs concurrently — one goroutine per processor,
// channel messaging — and returns every computed value. A program set
// that would crash or block on its own (a peer outside the set, a
// message to the sender itself, a receive nothing feeds) or that reads a
// value it never computed or received gets an error without running.
func Execute(g *Graph, progs []Program, sem Semantics) (map[InstanceID]float64, error) {
	r := mimdrt.NewRunner(g, progs, sem)
	defer r.Close()
	return r.Run()
}

// ExecuteSequential interprets the graph in body order: ground truth for
// Execute.
func ExecuteSequential(g *Graph, sem Semantics, n int) map[InstanceID]float64 {
	return mimdrt.Sequential(g, sem, n)
}

// ParseLoop parses loop-language source.
func ParseLoop(src string) (*Loop, error) { return loopir.Parse(src) }

// CompileLoop parses and analyzes loop-language source into a dependence
// graph with runnable semantics (if-converting guarded statements).
func CompileLoop(src string) (*CompiledLoop, error) {
	l, err := loopir.Parse(src)
	if err != nil {
		return nil, err
	}
	return loopir.Compile(l)
}

// MustCompileLoop is CompileLoop for known-good sources.
func MustCompileLoop(src string) *CompiledLoop { return loopir.MustCompile(src) }

// Gantt renders a schedule as the step-by-processor tables of the paper's
// figures. maxCycles <= 0 renders the whole schedule.
func Gantt(s *Schedule, maxCycles int) string { return textfmt.Gantt(s, maxCycles) }

// Pseudocode renders a scheduled loop as per-processor communicating
// subloops in the style of the paper's Figures 7(e) and 10.
func Pseudocode(ls *LoopSchedule) (string, error) {
	pat := ls.Pattern()
	if pat == nil {
		return "", ErrNoPattern
	}
	var prologue []Placement
	if !pat.Forced && ls.Multi != nil && len(ls.Multi.Components) == 1 {
		for _, pl := range ls.Multi.Components[0].Result.Greedy.Placements {
			if pl.Start < pat.Start {
				prologue = append(prologue, pl)
			}
		}
	}
	return program.Pseudocode(program.CodegenInput{
		Graph:     componentGraph(ls),
		Prologue:  prologue,
		Pattern:   pat.Placements,
		IterShift: pat.IterShift,
	})
}

func componentGraph(ls *LoopSchedule) *Graph {
	if ls.Multi != nil && len(ls.Multi.Components) == 1 {
		return ls.Multi.Components[0].Result.Graph
	}
	return ls.Graph
}

// Example workloads from the paper.

// Figure7Loop returns the exact loop of paper Figure 7(a).
func Figure7Loop() *CompiledLoop { return workload.Figure7() }

// Livermore18Loop returns the Figure 11 workload (LFK 18 reconstruction).
func Livermore18Loop() *CompiledLoop { return workload.Livermore18() }

// EllipticLoop returns the Figure 12 workload (fifth-order elliptic wave
// filter reconstruction).
func EllipticLoop() *CompiledLoop { return workload.Elliptic() }

// RandomCyclicLoop returns one of the Section 4 random workloads: the
// Cyclic subset of a 40-node, 20+20-dependence random loop.
func RandomCyclicLoop(seed int64) (*Graph, error) {
	return workload.Random(workload.PaperSpec, seed)
}
