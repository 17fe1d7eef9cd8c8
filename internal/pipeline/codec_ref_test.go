package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"mimdloop/internal/core"
	"mimdloop/internal/graph"
	"mimdloop/internal/plan"
	"mimdloop/internal/program"
)

// This file keeps the reflection-based plan codec that EncodePlan,
// DecodePlan, plan.Schedule's JSON methods and the schedule reply
// renderer replaced: encoding/json over struct mirrors of the wire
// formats. It is the reference the byte-identity goldens and
// FuzzDecodePlan compare the direct codec against.

// refScheduleJSON mirrors the schedule wire format.
type refScheduleJSON struct {
	Timing     plan.Timing    `json:"timing"`
	Processors int            `json:"processors"`
	Grain      int            `json:"grain,omitempty"`
	Nodes      []refNodeJSON  `json:"nodes"`
	Edges      []refEdgeJSON  `json:"edges"`
	Placements []refPlaceJSON `json:"placements"`
}

type refNodeJSON struct {
	Name    string `json:"name"`
	Latency int    `json:"latency"`
}

type refEdgeJSON struct {
	From     int `json:"from"`
	To       int `json:"to"`
	Distance int `json:"distance"`
	Cost     int `json:"cost"`
}

type refPlaceJSON struct {
	Node  int `json:"node"`
	Iter  int `json:"iter"`
	Proc  int `json:"proc"`
	Start int `json:"start"`
}

// refMarshalSchedule is the reference schedule encoding.
func refMarshalSchedule(s *plan.Schedule) ([]byte, error) {
	out := refScheduleJSON{Timing: s.Timing, Processors: s.Processors, Grain: s.Grain}
	for _, nd := range s.Graph.Nodes {
		out.Nodes = append(out.Nodes, refNodeJSON{Name: nd.Name, Latency: nd.Latency})
	}
	for _, e := range s.Graph.Edges {
		out.Edges = append(out.Edges, refEdgeJSON{From: e.From, To: e.To, Distance: e.Distance, Cost: e.Cost})
	}
	for _, p := range s.Placements {
		out.Placements = append(out.Placements, refPlaceJSON{Node: p.Node, Iter: p.Iter, Proc: p.Proc, Start: p.Start})
	}
	return json.Marshal(out)
}

// refUnmarshalSchedule is the reference schedule decoding, with the
// structural checks the reflection decoder made.
func refUnmarshalSchedule(data []byte) (*plan.Schedule, error) {
	var in refScheduleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	nodes := make([]graph.Node, len(in.Nodes))
	for i, nd := range in.Nodes {
		nodes[i] = graph.Node{ID: i, Name: nd.Name, Latency: nd.Latency}
	}
	edges := make([]graph.Edge, len(in.Edges))
	for i, e := range in.Edges {
		edges[i] = graph.Edge{From: e.From, To: e.To, Distance: e.Distance, Cost: e.Cost}
	}
	g, err := graph.New(nodes, edges)
	if err != nil {
		return nil, err
	}
	if in.Grain < 0 {
		return nil, fmt.Errorf("negative grain %d", in.Grain)
	}
	if in.Grain > 1 {
		if _, err := graph.Chunked(g, in.Grain); err != nil {
			return nil, err
		}
	}
	s := &plan.Schedule{Graph: g, Timing: in.Timing, Processors: in.Processors, Grain: in.Grain}
	for _, p := range in.Placements {
		s.Placements = append(s.Placements, plan.Placement{Node: p.Node, Iter: p.Iter, Proc: p.Proc, Start: p.Start})
	}
	return s, nil
}

// planRecord is the reference wire form of one persisted plan.
type planRecord struct {
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

	Measured   *MeasuredStats   `json:"measured,omitempty"`
	MeasuredBy []*MeasuredStats `json:"measured_by,omitempty"`

	Schedule json.RawMessage `json:"schedule"`
}

// refEncodePlan is the reference record encoding.
func refEncodePlan(p *Plan) ([]byte, error) {
	sched, err := refMarshalSchedule(p.Schedule.Full)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&planRecord{
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
		Schedule:       sched,
	})
}

// refDecodePlan is the reference record decoding: every check the
// reflection decoder made, and nothing more, then the values version 5
// derives from the schedule instead of reading them: the programs
// (program.Build), the makespan and the processor count.
func refDecodePlan(data []byte) (string, *Plan, error) {
	var rec planRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return "", nil, err
	}
	if rec.Format != planRecordFormat {
		return "", nil, fmt.Errorf("format %q", rec.Format)
	}
	if rec.Version < planRecordMinVersion || rec.Version > planRecordVersion {
		return "", nil, fmt.Errorf("version %d", rec.Version)
	}
	if rec.Key == "" || rec.GraphHash == "" {
		return "", nil, errors.New("missing key")
	}
	full, err := refUnmarshalSchedule(rec.Schedule)
	if err != nil {
		return "", nil, err
	}
	if got := PlanKey(rec.GraphHash, rec.Options, rec.Iterations); got != rec.Key {
		return "", nil, fmt.Errorf("key %q, ingredients %q", rec.Key, got)
	}
	if fp := full.Graph.Fingerprint(); fp != rec.GraphHash {
		return "", nil, fmt.Errorf("graph hashes to %s, header claims %s", fp, rec.GraphHash)
	}
	wantGrain, gotGrain := rec.Options.Grain, full.Grain
	if wantGrain == 1 {
		wantGrain = 0
	}
	if gotGrain == 1 {
		gotGrain = 0
	}
	if gotGrain != wantGrain {
		return "", nil, fmt.Errorf("schedule grain %d, options claim %d", full.Grain, rec.Options.Grain)
	}
	progs, err := program.Build(full)
	if err != nil {
		return "", nil, err
	}
	p := &Plan{
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
	if rec.Measured != nil {
		p.SetMeasured(rec.Measured)
	}
	for _, ms := range rec.MeasuredBy {
		if ms != nil {
			p.SetMeasured(ms)
		}
	}
	// The reflection decoder seeded the schedule memo with the record's
	// own schedule bytes.
	p.schedJSONOnce.Do(func() { p.schedJSON = append([]byte(nil), rec.Schedule...) })
	return rec.Key, p, nil
}

// refScheduleReply is the reference /v1/schedule reply body: the whole
// response through json.Encoder, as writeJSON rendered it.
func refScheduleReply(p *Plan, loop string, hit bool, measured *MeasuredStats) ([]byte, error) {
	sched, err := refMarshalSchedule(p.Schedule.Full)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(&ScheduleResponse{
		Loop:           loop,
		Nodes:          p.Schedule.Graph.N(),
		GraphHash:      p.GraphHash,
		Iterations:     p.Iterations,
		Rate:           p.Rate(),
		Makespan:       p.Makespan(),
		CyclicProcs:    p.Schedule.CyclicProcs,
		FlowInProcs:    p.Schedule.FlowInProcs,
		FlowOutProcs:   p.Schedule.FlowOutProcs,
		Folded:         p.Schedule.Folded,
		GreedyFallback: p.Schedule.GreedyFallback,
		Pattern:        p.Pattern(),
		CacheHit:       hit,
		Simulated:      measured,
		MeasuredBy:     p.MeasuredAll(),
		Schedule:       sched,
	})
	return buf.Bytes(), err
}

// samePlan reports the first way two decoded plans differ: what
// sameServing compares, or the programs.
func samePlan(a, b *Plan) error {
	if err := sameServing(a, b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a.Programs, b.Programs) {
		return errors.New("programs differ")
	}
	return nil
}

// sameServing reports the first way two plans differ in what they
// serve: key ingredients, serving summary, pattern, annotations, graph
// or placements.
func sameServing(a, b *Plan) error {
	as, bs := a.Schedule, b.Schedule
	switch {
	case a.GraphHash != b.GraphHash || a.Opts != b.Opts || a.Iterations != b.Iterations:
		return fmt.Errorf("ingredients %s %+v %d vs %s %+v %d", a.GraphHash, a.Opts, a.Iterations, b.GraphHash, b.Opts, b.Iterations)
	case a.Rate() != b.Rate() || a.Procs() != b.Procs() || a.Makespan() != b.Makespan():
		return fmt.Errorf("summary %v/%d/%d vs %v/%d/%d", a.Rate(), a.Procs(), a.Makespan(), b.Rate(), b.Procs(), b.Makespan())
	case as.CyclicProcs != bs.CyclicProcs || as.FlowInProcs != bs.FlowInProcs || as.FlowOutProcs != bs.FlowOutProcs ||
		as.Folded != bs.Folded || as.GreedyFallback != bs.GreedyFallback:
		return errors.New("processor accounting differs")
	case !reflect.DeepEqual(a.Pattern(), b.Pattern()):
		return fmt.Errorf("pattern %+v vs %+v", a.Pattern(), b.Pattern())
	case !reflect.DeepEqual(a.MeasuredAll(), b.MeasuredAll()):
		return errors.New("measured annotations differ")
	case !reflect.DeepEqual(as.Graph.Nodes, bs.Graph.Nodes) || !reflect.DeepEqual(as.Graph.Edges, bs.Graph.Edges):
		return errors.New("graphs differ")
	case as.Full.Timing != bs.Full.Timing || as.Full.Processors != bs.Full.Processors || as.Full.Grain != bs.Full.Grain:
		return errors.New("schedule header differs")
	case !reflect.DeepEqual(as.Full.Placements, bs.Full.Placements):
		return errors.New("placements differ")
	}
	return nil
}
