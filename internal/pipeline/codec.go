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
// (graph fingerprint, options, iterations), the serving summary
// (rate, processor accounting, pattern), the composed schedule in the
// internal/plan wire format (graph embedded, byte-for-byte the same JSON
// Plan.ScheduleJSON serves), and the lowered per-processor programs.
// Everything the serving surface reads off a Plan round-trips; the
// scheduler's intermediate state (per-component Cyclic-sched results,
// classification) deliberately does not — it is re-derivable and only
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
//
// The one-pass codec changed how records are written and read, not the
// format, so the version stays 4: records are byte-identical to the
// ones encoding/json wrote, and every version-1 to -4 record those
// wrote still decodes. What decoding now refuses is what it should
// never have served: a placement or instruction index outside the
// record's graph or programs (which panicked the first evaluation that
// ran it), an instruction past the keyed iteration count, a repeated
// key, and a key that matches a field only under case folding (which
// encoding/json silently merged).
//
// Decoded annotations are not codec-internal state: the server includes
// them in /v1/schedule replies as the "measured_by" field, and restoring
// them via SetMeasured advances the plan's measured generation — which
// keys the pre-rendered cache-hit response body (Plan.HitResponseBody),
// so a disk-restored measurement invalidates any stale hit body exactly
// like a fresh one.
const (
	planRecordFormat  = "mimdloop/plan"
	planRecordVersion = 4

	// planRecordMinVersion is the oldest record version DecodePlan still
	// accepts.
	planRecordMinVersion = 1
)

// planHeader is everything a record holds ahead of its schedule: a few
// hundred bytes, so encoding/json renders it. The schedule and the
// programs follow it, written by their own appenders.
type planHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`

	Key        string       `json:"key"`
	GraphHash  string       `json:"graph_hash"`
	Options    core.Options `json:"options"`
	Iterations int          `json:"iterations"`

	Rate     float64 `json:"rate_cycles_per_iteration"`
	Procs    int     `json:"procs"`
	Makespan int     `json:"makespan"`

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
// schedule bytes are copied in as they are and the programs are
// appended directly, so each byte is written once.
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
		Procs:          p.Procs(),
		Makespan:       p.Makespan(),
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
	rec := make([]byte, 0, len(head)+len(sched)+program.JSONSize(p.Programs)+len(`,"schedule":,"programs":`))
	rec = append(rec, head[:len(head)-1]...) // reopen the header object
	rec = append(rec, `,"schedule":`...)
	rec = append(rec, sched...)
	rec = append(rec, `,"programs":`...)
	rec = program.AppendJSON(rec, p.Programs)
	return append(rec, '}'), nil
}

var planRecordKeys = []string{
	"format", "version", "key", "graph_hash", "options", "iterations",
	"rate_cycles_per_iteration", "procs", "makespan",
	"cyclic_procs", "flow_in_procs", "flow_out_procs", "folded", "greedy_fallback",
	"pattern", "measured", "measured_by", "schedule", "programs",
}

// DecodePlan reverses EncodePlan, structurally validating the record. It
// returns the plan's full cache key alongside the reconstructed plan.
//
// The record is parsed in one pass by the strict scanner the schedule
// and program decoders share (internal/jsonwire): any key order and
// insignificant whitespace are accepted and unknown keys skipped, while
// only the small options, pattern and measured blocks go through
// encoding/json. Placements and instructions are range-checked as they
// are read (see plan.Schedule.DecodeJSON and program.DecodeJSON), and
// instruction iterations against the keyed iteration count once it is
// known, so a record naming a node outside its graph is rejected here
// rather than panicking the first evaluation that runs it.
//
// A decoded plan serves identically to the freshly-built original —
// same accessors, same pattern summary, byte-identical ScheduleJSON —
// but carries no scheduler intermediate state: Schedule.Multi and
// Schedule.Class are nil. Consumers that need those re-schedule; the
// serving surface never does.
func DecodePlan(data []byte) (key string, p *Plan, err error) {
	var (
		rec      planHeader
		measured *MeasuredStats // the version-2 single-annotation block
		full     *plan.Schedule
		progs    []program.Program
		// progsRaw holds a programs list that came before the schedule:
		// it is decoded once the schedule fixes the node bound.
		progsRaw []byte
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
		case "procs":
			rec.Procs, err = sc.Int()
		case "makespan":
			rec.Makespan, err = sc.Int()
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
		case "programs":
			if full == nil {
				progsRaw, err = sc.Raw()
			} else {
				progs, err = program.DecodeJSON(sc, full.Graph.N())
			}
		}
		return err
	})
	if err == nil {
		err = sc.End()
	}
	if err == nil && progsRaw != nil && full != nil {
		progs, err = program.DecodeJSON(jsonwire.New(progsRaw), full.Graph.N())
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
	// Instructions address chunks of the keyed iteration count; one past
	// the last chunk would hand the goroutine runtime an empty or
	// negative iteration span.
	chunks := rec.Iterations
	if full.Grain > 1 {
		chunks = (rec.Iterations + full.Grain - 1) / full.Grain
	}
	for _, pr := range progs {
		for i, in := range pr.Instrs {
			if in.Iter >= chunks {
				return "", nil, fmt.Errorf("pipeline: plan record program %d instruction %d is for iteration %d of %d",
					pr.Proc, i, in.Iter, chunks)
			}
		}
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
		makespan: rec.Makespan,
		procs:    rec.Procs,
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

// decodeBlock hands one small value (options, pattern, measured stats)
// to encoding/json.
func decodeBlock(sc *jsonwire.Scanner, v any) error {
	raw, err := sc.Raw()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}
