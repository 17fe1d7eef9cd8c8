package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"mimdloop/internal/core"
	"mimdloop/internal/metrics"
	"mimdloop/internal/pipeline"
	"mimdloop/internal/plan"
)

// envelope is the part of a /v1/schedule reply ahead of the embedded
// schedule: every field the benchmark reads on the hot path.
type envelope struct {
	Loop           string  `json:"loop"`
	GraphHash      string  `json:"graph_hash"`
	Iterations     int     `json:"iterations"`
	Makespan       int     `json:"makespan"`
	GreedyFallback bool    `json:"greedy_fallback"`
	CacheHit       bool    `json:"cache_hit"`
	Rate           float64 `json:"rate_cycles_per_iteration"`

	Simulated *pipeline.MeasuredStats `json:"simulated"`
}

var scheduleField = []byte(`,"schedule":`)

// parseEnvelope decodes a schedule reply's envelope without scanning the
// embedded schedule, which is the last field and most of the bytes.
func parseEnvelope(body []byte) (envelope, error) {
	var env envelope
	i := bytes.Index(body, scheduleField)
	if i < 0 {
		return env, fmt.Errorf("schedule reply has no schedule field: %.200s", body)
	}
	head := append(append([]byte(nil), body[:i]...), '}')
	if err := json.Unmarshal(head, &env); err != nil {
		return env, fmt.Errorf("schedule reply envelope: %w", err)
	}
	return env, nil
}

// staticSp is the static percentage parallelism of a returned plan:
// makespan against the one-processor length n·Σlatency, clamped at 0 as
// the paper's tables report it.
func staticSp(r *request, makespan int) float64 {
	return metrics.ClampZero(metrics.PercentParallelism(r.seqCycles(), makespan))
}

// checkScheduleReply validates one /v1/schedule reply against the
// library: the embedded schedule must unmarshal, pass Validate(true),
// and be byte-identical to core.ScheduleLoop + MarshalJSON for the same
// inputs; the envelope must describe the same plan.
func checkScheduleReply(r *request, body []byte) error {
	var resp pipeline.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decode reply: %w", r.loop.name, err)
	}
	var got plan.Schedule
	if err := got.UnmarshalJSON(resp.Schedule); err != nil {
		return fmt.Errorf("%s: decode schedule: %w", r.loop.name, err)
	}
	if err := got.Validate(true); err != nil {
		return fmt.Errorf("%s: returned schedule invalid: %w", r.loop.name, err)
	}
	ls, err := core.ScheduleLoop(r.loop.g, r.opts, r.n)
	if err != nil {
		return fmt.Errorf("%s: library schedule: %w", r.loop.name, err)
	}
	want, err := ls.Full.MarshalJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(resp.Schedule, want) {
		return fmt.Errorf("%s (p=%d k=%d n=%d): returned schedule differs from the library's (%d vs %d bytes)",
			r.loop.name, r.opts.Processors, r.opts.CommCost, r.n, len(resp.Schedule), len(want))
	}
	switch {
	case resp.GraphHash != r.loop.g.Fingerprint():
		return fmt.Errorf("%s: graph hash %s, want %s", r.loop.name, resp.GraphHash, r.loop.g.Fingerprint())
	case resp.Iterations != r.n:
		return fmt.Errorf("%s: %d iterations, want %d", r.loop.name, resp.Iterations, r.n)
	case resp.Makespan != ls.Full.Makespan():
		return fmt.Errorf("%s: makespan %d, library %d", r.loop.name, resp.Makespan, ls.Full.Makespan())
	case resp.GreedyFallback != ls.GreedyFallback:
		return fmt.Errorf("%s: greedy_fallback %v, library %v", r.loop.name, resp.GreedyFallback, ls.GreedyFallback)
	}
	return nil
}

// checkRecordReply validates a GET /v1/plans/{fp}?key= reply: the record
// must decode through DecodePlan to the requested key.
func checkRecordReply(r *request, body []byte) error {
	key, p, err := pipeline.DecodePlan(bytes.TrimSuffix(body, []byte("\n")))
	if err != nil {
		return fmt.Errorf("%s: record: %w", r.loop.name, err)
	}
	if key != r.key {
		return fmt.Errorf("%s: record key %q, requested %q", r.loop.name, key, r.key)
	}
	if p.Iterations != r.n || p.GraphHash != r.loop.g.Fingerprint() {
		return fmt.Errorf("%s: record is for %s n=%d, requested %s n=%d",
			r.loop.name, p.GraphHash, p.Iterations, r.loop.g.Fingerprint(), r.n)
	}
	return nil
}

// checkBatchReply requires every item of a batch to have scheduled the
// requested loop.
func checkBatchReply(r *request, body []byte) error {
	var resp pipeline.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("batch: decode reply: %w", err)
	}
	if resp.Failed != 0 || len(resp.Results) != len(r.items) {
		return fmt.Errorf("batch: %d of %d items failed", resp.Failed, len(r.items))
	}
	for i, it := range resp.Results {
		if it.GraphHash != r.items[i].loop.g.Fingerprint() || it.Iterations != r.items[i].n {
			return fmt.Errorf("batch item %d: scheduled %s n=%d, requested %s n=%d",
				i, it.GraphHash, it.Iterations, r.items[i].loop.g.Fingerprint(), r.items[i].n)
		}
	}
	return nil
}

// checkTuneReply requires the winner to be a point of the requested
// grid, scheduled without error.
func checkTuneReply(r *request, resp *pipeline.TuneResponse) error {
	t := r.tune
	in := func(v int, axis []int) bool {
		for _, a := range axis {
			if a == v {
				return true
			}
		}
		return false
	}
	grains := t.Grains
	if len(grains) == 0 {
		grains = []int{0}
	}
	b := resp.Best
	switch {
	case b.Error != "":
		return fmt.Errorf("%s: winner failed: %s", r.loop.name, b.Error)
	case resp.SerialFallback:
		return fmt.Errorf("%s: tune took the serial fallback", r.loop.name)
	case !in(b.Processors, t.Processors) || !in(b.CommCost, t.CommCosts) || !in(b.Grain, grains):
		return fmt.Errorf("%s: winner (p=%d k=%d grain=%d) is not in the grid %v x %v x %v",
			r.loop.name, b.Processors, b.CommCost, b.Grain, t.Processors, t.CommCosts, grains)
	case resp.Evaluated < 1 || len(resp.Results) != len(t.Processors)*len(t.CommCosts)*len(grains):
		return fmt.Errorf("%s: %d results for a %d-point grid", r.loop.name, len(resp.Results),
			len(t.Processors)*len(t.CommCosts)*len(grains))
	}
	return nil
}

// deterministicTune renders a tune reply without its cache-hit flags,
// which legitimately differ between the first and later passes: what
// remains must repeat exactly for a deterministic evaluator.
func deterministicTune(resp *pipeline.TuneResponse) ([]byte, error) {
	cp := *resp
	cp.Best.CacheHit = false
	cp.Results = append([]pipeline.TunePointResult(nil), resp.Results...)
	for i := range cp.Results {
		cp.Results[i].CacheHit = false
	}
	return json.Marshal(&cp)
}

// checkErrors joins check failures, keeping the report short.
func checkErrors(errs []error) error {
	if len(errs) > 5 {
		errs = append(errs[:5], fmt.Errorf("... and %d more", len(errs)-5))
	}
	return errors.Join(errs...)
}
