package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"

	"mimdloop/internal/core"
	"mimdloop/internal/jsonwire"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
)

// The durable plan-record format. A record is one JSON object with a
// format/version header, the full cache key and its three ingredients
// (graph fingerprint, options, iterations), what only the scheduler's
// intermediate state knows (rate, processor accounting, pattern), the
// measured annotations, and the composed schedule in the internal/plan
// wire format (graph embedded, byte-for-byte the same JSON
// Plan.ScheduleJSON serves). Everything the serving surface reads off a
// Plan round-trips; what the schedule determines (programs, makespan,
// processor count) is derived on decode, and the scheduler's
// per-component Cyclic-sched results and classification are only
// needed to *construct* plans, never to serve them.
//
// Version history:
//
//	1 — the PR 3 format: key, ingredients, serving summary, schedule,
//	    programs.
//	2 — adds the optional "measured" block (MeasuredStats): the plan's
//	    most recent measured evaluation on the simulated machine.
//	3 — replaces "measured" with "measured_by": one self-describing
//	    MeasuredStats per execution backend (sim, gort), sorted by
//	    backend name, so annotations from different backends coexist
//	    instead of overwriting each other. Version-1 and -2 records
//	    still decode (a v2 "measured" block is adopted as the sim
//	    backend's annotation); version-3 records without a measurement
//	    are byte-compatible with version 1 apart from the header.
//	4 — adds the grain axis: options carry "Grain" and the embedded
//	    schedule carries "grain" when a plan was scheduled in chunk
//	    space; both fields are omitted at the default (grain 0/1), so
//	    grain-free version-4 records are byte-compatible with version 3
//	    apart from the header, and version <= 3 records decode as
//	    grain 0 with their original keys intact.
//	5 — drops "programs", "makespan" and "procs", which every version
//	    now derives from the schedule (records are about 3x smaller).
//	    The bump makes a version-4 node refuse the record, which it
//	    would accept without programs, and compute locally.
//
// Decoding refuses what it should never serve: a schedule that breaks
// the timing model or disagrees with the key (see lowerRecord), a
// placement index outside the record's graph, a repeated key, and a key
// that matches a field only under case folding (which encoding/json
// silently merged).
//
// Decoded annotations are not codec-internal state: the server includes
// them in /v1/schedule replies as the "measured_by" field, and restoring
// them via SetMeasured advances the plan's measured generation — which
// keys the pre-rendered cache-hit response body (Plan.HitResponseBody),
// so a disk-restored measurement invalidates any stale hit body exactly
// like a fresh one.
const (
	planRecordFormat  = "mimdloop/plan"
	planRecordVersion = 5

	// planRecordMinVersion is the oldest record version DecodePlan still
	// accepts.
	planRecordMinVersion = 1

	// maxRecordProcs bounds the processors a record's schedule may span
	// beyond its placement count: lowering sizes a program per
	// processor, and a record must not size one by a number it states.
	maxRecordProcs = 1 << 16
)

// planHeader is everything a record holds ahead of its schedule: a few
// hundred bytes, so encoding/json renders it. The schedule follows it,
// copied in from the plan's memoized bytes.
type planHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Key        string       `json:"key"`
	GraphHash  string       `json:"graph_hash"`
	Options    core.Options `json:"options"`
	Iterations int          `json:"iterations"`

	Rate float64 `json:"rate_cycles_per_iteration"`

	CyclicProcs    int  `json:"cyclic_procs"`
	FlowInProcs    int  `json:"flow_in_procs"`
	FlowOutProcs   int  `json:"flow_out_procs"`
	Folded         bool `json:"folded"`
	GreedyFallback bool `json:"greedy_fallback"`

	Pattern *PatternInfo `json:"pattern,omitempty"`

	// MeasuredBy is the plan's last measured evaluation per execution
	// backend, sorted by backend name (version >= 3; omitted when the
	// plan was only ever scored statically).
	MeasuredBy []*MeasuredStats `json:"measured_by,omitempty"`
}

// EncodePlan serializes a plan to the durable record format. The
// record's key is derived from the plan's own ingredients (PlanKey), so
// a record can never claim to answer a request its content does not
// match. Only the header goes through encoding/json; the memoized
// schedule bytes are copied in as they are.
func EncodePlan(p *Plan) ([]byte, error) {
	sched, err := p.ScheduleJSON()
	if err != nil {
		return nil, fmt.Errorf("pipeline: encode plan schedule: %w", err)
	}
	head, err := json.Marshal(&planHeader{
		Format:         planRecordFormat,
		Version:        planRecordVersion,
		Key:            PlanKey(p.GraphHash, p.Opts, p.Iterations),
		GraphHash:      p.GraphHash,
		Options:        p.Opts,
		Iterations:     p.Iterations,
		Rate:           p.Rate(),
		CyclicProcs:    p.Schedule.CyclicProcs,
		FlowInProcs:    p.Schedule.FlowInProcs,
		FlowOutProcs:   p.Schedule.FlowOutProcs,
		Folded:         p.Schedule.Folded,
		GreedyFallback: p.Schedule.GreedyFallback,
		Pattern:        p.Pattern(),
		MeasuredBy:     p.MeasuredAll(),
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: encode plan record: %w", err)
	}
	rec := make([]byte, 0, len(head)+len(`,"schedule":`)+len(sched))
	rec = append(rec, head[:len(head)-1]...) // reopen the header object
	rec = append(rec, `,"schedule":`...)
	rec = append(rec, sched...)
	return append(rec, '}'), nil
}

// planRecordKeys are the members DecodePlan reads. Version <= 4 records
// also carry "procs", "makespan" and "programs", which it skips as
// unknown keys: all three are derived from the schedule.
var planRecordKeys = []string{
	"format", "version", "key", "graph_hash", "options", "iterations",
	"rate_cycles_per_iteration",
	"cyclic_procs", "flow_in_procs", "flow_out_procs", "folded", "greedy_fallback",
	"pattern", "measured", "measured_by", "schedule",
}

// DecodePlan reverses EncodePlan, validating the record. It returns the
// plan's full cache key alongside the reconstructed plan.
//
// The record is parsed in one pass by the strict scanner the schedule
// decoder uses (internal/jsonwire): any key order and insignificant
// whitespace are accepted and unknown keys skipped, while only the
// small options, pattern and measured blocks go through encoding/json.
// Placements are range-checked as they are read (see
// plan.Schedule.DecodeJSON). The decoded schedule must then be for the
// keyed graph, grain and iteration count, and pass Validate(true); it
// is lowered with program.Build, and the plan's makespan and processor
// count are read off it, exactly as a freshly-built plan's are. Every
// record version takes this one path.
//
// A decoded plan serves identically to the freshly-built original —
// same accessors, same pattern summary, same programs, byte-identical
// ScheduleJSON — but carries no scheduler intermediate state:
// Schedule.Multi and Schedule.Class are nil. Consumers that need those
// re-schedule; the serving surface never does.
func DecodePlan(data []byte) (key string, p *Plan, err error) {
	var (
		rec      planHeader
		measured *MeasuredStats // the version-2 single-annotation block
		full     *plan.Schedule
	)
	sc := jsonwire.New(data)
	err = sc.Object(planRecordKeys, func(k string) (err error) {
		switch k {
		case "format":
			rec.Format, err = sc.String()
		case "version":
			rec.Version, err = sc.Int()
		case "key":
			rec.Key, err = sc.String()
		case "graph_hash":
			rec.GraphHash, err = sc.String()
		case "options":
			err = decodeBlock(sc, &rec.Options)
		case "iterations":
			rec.Iterations, err = sc.Int()
		case "rate_cycles_per_iteration":
			rec.Rate, err = sc.Float64()
		case "cyclic_procs":
			rec.CyclicProcs, err = sc.Int()
		case "flow_in_procs":
			rec.FlowInProcs, err = sc.Int()
		case "flow_out_procs":
			rec.FlowOutProcs, err = sc.Int()
		case "folded":
			rec.Folded, err = sc.Bool()
		case "greedy_fallback":
			rec.GreedyFallback, err = sc.Bool()
		case "pattern":
			err = decodeBlock(sc, &rec.Pattern)
		case "measured":
			err = decodeBlock(sc, &measured)
		case "measured_by":
			err = decodeBlock(sc, &rec.MeasuredBy)
		case "schedule":
			full = new(plan.Schedule)
			err = full.DecodeJSON(sc)
		}
		return err
	})
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return "", nil, fmt.Errorf("pipeline: decode plan record: %w", err)
	}
	if rec.Format != planRecordFormat {
		return "", nil, fmt.Errorf("pipeline: plan record format %q, want %q", rec.Format, planRecordFormat)
	}
	if rec.Version < planRecordMinVersion || rec.Version > planRecordVersion {
		return "", nil, fmt.Errorf("pipeline: plan record version %d, want %d..%d",
			rec.Version, planRecordMinVersion, planRecordVersion)
	}
	if rec.Key == "" || rec.GraphHash == "" {
		return "", nil, errors.New("pipeline: plan record missing key")
	}
	if full == nil {
		return "", nil, errors.New("pipeline: plan record missing schedule")
	}
	if got := PlanKey(rec.GraphHash, rec.Options, rec.Iterations); got != rec.Key {
		return "", nil, fmt.Errorf("pipeline: plan record key %q does not match its ingredients %q", rec.Key, got)
	}
	// The embedded schedule must actually be for the claimed graph: the
	// composed schedule always embeds the scheduled graph, so its
	// re-derived fingerprint matching GraphHash ties the record's payload
	// to its key, not just its header. A record whose schedule was edited
	// under an intact header fails here and gets quarantined upstream.
	if fp := full.Graph.Fingerprint(); fp != rec.GraphHash {
		return "", nil, fmt.Errorf("pipeline: plan record graph hashes to %s, header claims %s", fp, rec.GraphHash)
	}
	// The schedule's grain must agree with the keyed options (grain 0 and
	// 1 both mean "unchunked"): a mismatch means the record's placements
	// are in a different space than its key claims.
	wantGrain := rec.Options.Grain
	if wantGrain == 1 {
		wantGrain = 0
	}
	gotGrain := full.Grain
	if gotGrain == 1 {
		gotGrain = 0
	}
	if gotGrain != wantGrain {
		return "", nil, fmt.Errorf("pipeline: plan record schedule grain %d, options claim %d", full.Grain, rec.Options.Grain)
	}
	progs, err := lowerRecord(full, rec.Iterations)
	if err != nil {
		return "", nil, fmt.Errorf("pipeline: plan record schedule: %w", err)
	}
	p = &Plan{
		GraphHash:  rec.GraphHash,
		Opts:       rec.Options,
		Iterations: rec.Iterations,
		Schedule: &core.LoopSchedule{
			Graph:          full.Graph,
			Opts:           rec.Options,
			Full:           full,
			Iterations:     rec.Iterations,
			CyclicProcs:    rec.CyclicProcs,
			FlowInProcs:    rec.FlowInProcs,
			FlowOutProcs:   rec.FlowOutProcs,
			Folded:         rec.Folded,
			GreedyFallback: rec.GreedyFallback,
		},
		Programs: progs,
		makespan: full.Makespan(),
		procs:    full.ProcsUsed(),
		rate:     rec.Rate,
		pattern:  rec.Pattern,
	}
	// Version-2 records carry one "measured" block; SetMeasured adopts
	// its empty Backend as "sim" — the only backend that existed then.
	if measured != nil {
		p.SetMeasured(measured)
	}
	for _, ms := range rec.MeasuredBy {
		if ms != nil {
			p.SetMeasured(ms)
		}
	}
	// ScheduleJSON renders the decoded schedule on first use: for every
	// record EncodePlan wrote that reproduces the record's own schedule
	// bytes, and for any other accepted record it yields the canonical
	// compact form, which replies embed without re-compacting.
	return rec.Key, p, nil
}

// lowerRecord checks a decoded record's schedule for n keyed iterations
// and lowers it. The schedule must span at most max(placements,
// maxRecordProcs) processors, since lowering and ProcsUsed size slices
// by the span; pass Validate(true), so every dependence is met and no
// processor runs two placements at once; and place exactly the keyed
// iterations (chunks, at a grain above 1), at least one, so no program
// runs short of or past the iterations the plan is evaluated for.
func lowerRecord(s *plan.Schedule, n int) ([]program.Program, error) {
	span := s.Processors
	for _, pl := range s.Placements {
		span = max(span, pl.Proc+1)
	}
	if span > max(len(s.Placements), maxRecordProcs) {
		return nil, fmt.Errorf("%d processors for %d placements", span, len(s.Placements))
	}
	if err := s.Validate(true); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("keyed for %d iterations", n)
	}
	if s.Grain > 1 {
		n = (n + s.Grain - 1) / s.Grain
	}
	if got := s.Iterations(); got != n {
		return nil, fmt.Errorf("places %d iterations, key has %d", got, n)
	}
	return program.Build(s)
}

// decodeBlock hands one small value (options, pattern, measured stats)
// to encoding/json.
func decodeBlock(sc *jsonwire.Scanner, v any) error {
	raw, err := sc.Raw()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}
